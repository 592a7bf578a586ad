"""Attracting-point location, map classification, and hyperbolic-step analysis.

Orbits of non-elliptic maps drift to a boundary point, so the step and
merging sequences walk them from the start in right-half-plane coordinates
with that point at infinity (HalfPlaneConjugate), where the formula
|(w2 - w1)/(w2 + conj(w1))| has no cancellation near the attracting point.
"""

from __future__ import annotations

import cmath
import math
import weakref
from dataclasses import dataclass

import numpy as np

from .geometry import (
    Horodisk,
    cayley_to_rhp,
    ensure_disk_point,
    ensure_unimodular,
    halfplane_pseudo_hyperbolic,
)
from .selfmap import (
    CompositeMap,
    FiniteBlaschkeProduct,
    HalfPlaneConjugate,
    angular_derivative,
    degree,
    evaluate,
    is_identity,
    jet,
)

# boundary attraction is declared parabolic inside this band around a = 1
PARABOLIC_BAND = 1e-4

# denjoy_wolff: an orbit converging beyond this radius is a boundary orbit
TRANSPORT_RADIUS = 0.999

ELLIPTIC_INTERIOR = "elliptic-interior"
HYPERBOLIC = "hyperbolic"
PARABOLIC = "parabolic"


@dataclass(frozen=True)
class MapClass:
    """Trichotomy verdict with the evidence that produced it."""

    kind: str
    dw_point: complex
    angular_derivative: float | None = None
    interior_derivative: complex | None = None
    residual: float = 0.0

    def __post_init__(self):
        if self.kind not in (ELLIPTIC_INTERIOR, HYPERBOLIC, PARABOLIC):
            raise ValueError(f"unknown kind {self.kind!r}")


@dataclass(frozen=True)
class StepReport:
    """Consecutive-orbit pseudo-hyperbolic distances and their tail verdict."""

    verdict: str
    sequence: np.ndarray
    limit_estimate: float
    base_point: complex
    frozen_at: int | None = None
    # informational: approach angle of the final iterate to the attracting
    # point, 0 radial, +-pi/2 tangential
    approach_angle: float | None = None


class ClassificationError(RuntimeError):
    pass


def _interior_refine(f, z, tol):
    for _ in range(60):
        v, d1, _ = jet(f, z)
        den = d1 - 1.0
        if den == 0:
            break
        step = (v - z) / den
        z = z - step
        if abs(step) < max(tol * 1e-3, 1e-15):
            break
    return z


def _boundary_refine(f, omega):
    """Newton on the circle map theta -> arg(e^-itheta f(e^itheta)).

    The attracting point is a simple zero for hyperbolic contact and a double
    zero for parabolic contact; the step switches to the double-root form
    when the derivative degenerates.
    """
    theta = cmath.phase(omega)
    for _ in range(60):
        z = cmath.exp(1j * theta)
        v, d1, _ = jet(f, z)
        err = cmath.phase(v / z)
        if err == 0.0:
            break
        slope = (z * d1 / v).real - 1.0
        if abs(slope) > 1e-6:
            step = err / slope
            if abs(slope) < 0.5:
                step *= 2.0  # near-parabolic: double zero of the angle error
        else:
            break
        if abs(step) > 0.3:
            break
        theta -= step
        if abs(step) < 1e-15:
            break
    return cmath.exp(1j * theta) if theta != 0.0 else 1.0 + 0.0j


def _mobius_fixed_points(f):
    """Fixed points of a degree-1 product, exactly via the quadratic."""
    (a, _), = f.zeros
    if a == 0:
        return [0.0 + 0.0j] if f.gamma != 1.0 else []
    c1 = -f.gamma * a / abs(a)
    roots = np.roots([a.conjugate(), c1 - 1.0, -c1 * a])
    return [complex(r) for r in roots]


def denjoy_wolff(f, tol: float = 1e-9, n_max: int = 10000) -> MapClass:
    """Locate the attracting point by iteration from the origin.

    Interior convergence is refined by Newton on f(z) - z; boundary escape is
    estimated from the mean of the last 16 normalized iterates, polished on
    the unit circle, and confirmed by the extrapolated boundary derivative.
    Degree-1 maps with non-convergent (rotation-like) orbits are solved in
    closed form.
    """
    if is_identity(f):
        raise ValueError("the identity map has no distinguished fixed point")

    d = degree(f)
    if d == 1:
        return _classify_mobius(f, tol)
    z = 0.0 + 0.0j
    tail: list[complex] = []
    verdict = "exhausted"
    for n in range(n_max):
        z_next = evaluate(f, z)
        if abs(z_next) > 1.0 - 1e-13:
            z = z_next
            verdict = "boundary"
            break
        if abs(z_next - z) < tol:
            z = z_next
            # a converged orbit hugging the boundary is a boundary orbit
            verdict = "interior" if abs(z) <= TRANSPORT_RADIUS else "boundary"
            break
        z = z_next
        if abs(z) > 0.5:
            tail.append(z / abs(z))
            if len(tail) > 16:
                tail.pop(0)

    if verdict == "interior":
        fp = _interior_refine(f, z, tol)
        _, d1, _ = jet(f, fp)
        return MapClass(
            kind=ELLIPTIC_INTERIOR,
            dw_point=fp,
            interior_derivative=d1,
            residual=abs(evaluate(f, fp) - fp),
        )

    if verdict == "exhausted":
        # no convergence seen: accept only clear boundary drift evidence
        mean = sum(tail) / len(tail) if tail else 0.0
        spread = max(abs(t - mean) for t in tail) if tail else math.inf
        if not (abs(z) > 0.9 and len(tail) == 16 and spread < 0.05):
            raise ClassificationError(
                f"orbit inconclusive after {n_max} iterations (last z = {z!r})"
            )
        guess = mean / abs(mean)
    else:
        guess = (sum(tail) / len(tail)) if tail else z
        guess /= abs(guess)
    return _boundary_verdict(f, guess)


def _boundary_verdict(f, guess: complex) -> MapClass:
    omega = _boundary_refine(f, guess)
    if getattr(f, "hp_exact", None) is not None and abs(omega - 1.0) < 1e-6:
        # maps carrying an exact half-plane form fix the disk point 1
        omega = 1.0 + 0.0j
    rep = angular_derivative(f, omega)
    if not rep.finite or rep.angular_derivative > 1.0 + PARABOLIC_BAND:
        raise ClassificationError(
            f"boundary contact {omega!r} has derivative "
            f"{rep.angular_derivative!r}; not an attracting point"
        )
    a = rep.angular_derivative
    kind = PARABOLIC if abs(a - 1.0) < PARABOLIC_BAND else HYPERBOLIC
    return MapClass(kind=kind, dw_point=omega, angular_derivative=a,
                    residual=rep.residual)


def _classify_mobius(f, tol: float) -> MapClass:
    """Degree-1 maps (disk automorphisms) via the fixed-point quadratic."""
    fps = _mobius_fixed_points(f)
    inside = [p for p in fps if abs(p) < 1.0 - 1e-6]
    if inside:
        fp = _interior_refine(f, inside[0], tol)
        _, d1, _ = jet(f, fp)
        return MapClass(ELLIPTIC_INTERIOR, fp, interior_derivative=d1,
                        residual=abs(evaluate(f, fp) - fp))
    last_error = None
    for p in sorted(fps, key=lambda p: abs(abs(p) - 1.0)):
        try:
            return _boundary_verdict(f, p / abs(p))
        except ClassificationError as exc:
            last_error = exc  # repelling fixed point: derivative above 1
    raise last_error


# default-tolerance verdicts of the (never mutated) Blaschke-type map
# objects still alive; keyed by the object, so nothing outlives its map
_CLASSES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def classify(f) -> MapClass:
    """Classification with default tolerances, computed once per Blaschke-type
    map object; plain callables are classified on every call."""
    if not isinstance(f, (FiniteBlaschkeProduct, CompositeMap)):
        return denjoy_wolff(f)
    cls = _CLASSES.get(f)
    if cls is None:
        cls = _CLASSES[f] = denjoy_wolff(f)
    return cls


def _boundary_class(f, purpose: str) -> MapClass:
    """classify(f), refusing maps whose attracting point is interior."""
    cls = classify(f)
    if cls.kind == ELLIPTIC_INTERIOR:
        raise ValueError(f"{purpose} needs a boundary attracting point")
    return cls


def _orbit_rho_sequence(f, points, n_max, omega):
    """Pseudo-hyperbolic distances between the orbits of `points`, walked in
    half-plane coordinates, with a frozen tail once the values stagnate.

    points is a list of one start (consecutive-step mode) or two starts.
    Returns (values array of length n_max + 1, frozen_at, last_w).
    """
    hp = HalfPlaneConjugate(f, omega)
    consec = len(points) == 1
    ws = [cayley_to_rhp(omega.conjugate() * ensure_disk_point(p)) for p in points]
    if consec:
        ws.append(hp.apply(ws[0]))
    u, v = ws
    vals = np.empty(n_max + 1)
    frozen_at = None
    stagnant = 0
    for n in range(n_max + 1):
        rho = halfplane_pseudo_hyperbolic(u, v)
        vals[n] = rho
        if n > 8:
            if rho > 0 and abs(rho - prev) <= 5e-16 * rho:
                stagnant += 1
            else:
                stagnant = 0
            if stagnant >= 8 or max(abs(u), abs(v)) > 1e250 or rho < 1e-300:
                vals[n + 1:] = rho
                frozen_at = n
                break
        prev = rho
        u, v = (v if consec else hp.apply(u)), hp.apply(v)
    return vals, frozen_at, u


def hyperbolic_step(f, z0: complex = 0.0, n_max: int = 10000) -> StepReport:
    """Tail behavior of s_n = rho(orbit_n, orbit_{n+1}) from z0.

    Verdict rule: zero when s_{n_max} < 1e-4 with a decaying tail
    (s_{n_max}/s_{n_max/2} < 0.75); positive when s_{n_max} > 1e-3 with a
    stalled tail (ratio > 0.99); otherwise inconclusive.
    """
    z0 = ensure_disk_point(z0)
    omega = ensure_unimodular(_boundary_class(f, "hyperbolic step").dw_point)

    vals, frozen_at, last_w = _orbit_rho_sequence(f, [z0], n_max, omega)
    s_end = vals[n_max]
    s_half = vals[n_max // 2]
    if s_end == 0.0:
        verdict = "zero"
    elif s_end < 1e-4 and s_end / s_half < 0.75:
        verdict = "zero"
    elif s_end > 1e-3 and s_end / s_half > 0.99:
        verdict = "positive"
    else:
        verdict = "inconclusive"

    if abs(last_w) > 1e200:
        angle = math.atan2(last_w.imag, last_w.real)
    else:
        angle = math.atan2((last_w + 1.0).imag, (last_w + 1.0).real)
    return StepReport(
        verdict=verdict,
        sequence=vals,
        limit_estimate=float(s_end),
        base_point=z0,
        frozen_at=frozen_at,
        approach_angle=angle,
    )


def orbit_merging(f, z0: complex, w0: complex, n_max: int = 10000) -> np.ndarray:
    """Sequence rho(orbit of z0, orbit of w0) for n = 0..n_max."""
    z0 = ensure_disk_point(z0)
    w0 = ensure_disk_point(w0)
    omega = ensure_unimodular(_boundary_class(f, "orbit merging").dw_point)
    vals, _, _ = _orbit_rho_sequence(f, [z0, w0], n_max, omega)
    return vals


@dataclass(frozen=True)
class ContainmentReport:
    contact: complex
    level: float
    derivative: float
    bound: float
    max_quotient: float
    max_ratio: float
    worst_point: complex
    samples: int
    passed: bool


def julia_containment_check(f, M: float, samples: int = 1000, seed: int = 0) -> ContainmentReport:
    """Sample the horodisk H(omega, M) and verify images stay in H(omega, a M).

    omega is the attracting boundary point and a its derivative there; the
    allowed slack on the quotient bound is 1e-9 relative.
    """
    if is_identity(f):
        # every boundary point gives exact quotient preservation
        omega, a = 1.0 + 0.0j, 1.0
    else:
        cls = _boundary_class(f, "containment check")
        omega = ensure_unimodular(cls.dw_point)
        a = float(cls.angular_derivative)

    disk = Horodisk(omega, M)
    center, radius = disk.center, disk.radius
    rng = np.random.default_rng(seed)
    bound = a * M
    max_q = -math.inf
    worst = 0.0 + 0.0j
    n_done = 0
    while n_done < samples:
        u = rng.random()
        v = rng.random()
        z = center + radius * math.sqrt(u) * cmath.exp(2j * math.pi * v)
        if abs(z) >= 1.0 - 1e-12 or not disk.contains(z):
            continue
        q = disk.quotient(evaluate(f, z))
        if q > max_q:
            max_q = q
            worst = z
        n_done += 1
    ratio = max_q / bound
    return ContainmentReport(
        contact=omega,
        level=float(M),
        derivative=a,
        bound=bound,
        max_quotient=max_q,
        max_ratio=ratio,
        worst_point=worst,
        samples=samples,
        passed=ratio <= 1.0 + 1e-9,
    )
