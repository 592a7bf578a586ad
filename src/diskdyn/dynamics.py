"""Attracting-point location, map classification, and hyperbolic-step analysis.

Every map is a finite Blaschke product or a composite of them, classified
from the roots of one fixed-point polynomial and, at a boundary point, the
Clark sums that the half-plane transport steps with.

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
from numpy.polynomial import polynomial as npp

from . import lanes
from .geometry import Horodisk, ensure_disk_point
from .selfmap import (
    PREIMAGE_RESIDUAL_TOL,
    HalfPlaneConjugate,
    _boundary_constants,
    _clark_chain,
    _polish,
    _root_groups,
    _stages,
    evaluate,
    is_identity,
    jet,
)
from .stacks import _substitute

# boundary attraction is parabolic inside this band around a = 1, and then
# has zero step when the shift |b| is inside it too
PARABOLIC_BAND = 1e-4

# fixed-point roots this close to the circle are boundary fixed points
CIRCLE_BAND = 1e-3

ELLIPTIC_INTERIOR = "elliptic-interior"
HYPERBOLIC = "hyperbolic"
PARABOLIC = "parabolic"


@dataclass(frozen=True)
class MapClass:
    """Trichotomy verdict with the evidence that produced it.

    At a boundary point omega: angular_derivative a = |f'(omega)|, shift
    a (a - 1) + i a^2 b = omega f''(omega) for f carried to the half-plane as
    F(w) = w / a + i b + O(1/w), and step "zero" for parabolic maps with
    |shift| < PARABOLIC_BAND, else "positive".
    """

    kind: str
    dw_point: complex
    angular_derivative: float | None = None
    interior_derivative: complex | None = None
    residual: float = 0.0
    shift: complex | None = None
    step: str | None = None

    def __post_init__(self):
        if self.kind not in (ELLIPTIC_INTERIOR, HYPERBOLIC, PARABOLIC):
            raise ValueError(f"unknown kind {self.kind!r}")


@dataclass(frozen=True)
class StepReport:
    """Consecutive-orbit pseudo-hyperbolic distances and the map's step verdict."""

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


def _interior_refine(f, z):
    for _ in range(60):
        v, d1, _ = jet(f, z)
        den = d1 - 1.0
        if den == 0:
            break
        step = (v - z) / den
        z = z - step
        if abs(step) < 1e-12:
            break
    return z


def _interior_class(f, p) -> MapClass:
    return MapClass(ELLIPTIC_INTERIOR, p, interior_derivative=jet(f, p)[1],
                    residual=abs(evaluate(f, p) - p))


def _attracting(f, contacts) -> MapClass:
    """The class of a map attracted to the boundary fixed point of least a
    among the contacts omega with |f(omega) - omega| <= PREIMAGE_RESIDUAL_TOL
    and a < 1 + PARABOLIC_BAND.  The shift is taken from a and b each rounded
    once (selfmap._boundary_constants), so example62's is 0 exactly.
    selfmap._clark_chain keeps each contact's Clark chain for the map's
    conjugate there."""
    fixed = []
    for omega in contacts:
        residual = abs(evaluate(f, omega) - omega)
        if residual <= PREIMAGE_RESIDUAL_TOL:
            a, b = (float(x) for x in _boundary_constants(_clark_chain(f, omega)))
            if a < 1.0 + PARABOLIC_BAND:
                fixed.append((a, b, omega, residual))
    if not fixed:
        raise ClassificationError(f"none of the boundary contacts {contacts!r} attracts")
    a, b, omega, residual = min(fixed, key=lambda t: t[0])
    shift = complex(a * (a - 1.0), a * a * b)
    kind = PARABOLIC if abs(a - 1.0) < PARABOLIC_BAND else HYPERBOLIC
    step = "zero" if kind == PARABOLIC and abs(shift) < PARABOLIC_BAND else "positive"
    return MapClass(kind, omega, a, residual=residual, shift=shift, step=step)


def _fixed_point_poly(f) -> np.ndarray:
    """Coefficients (low to high) of P = A - z B for f = A / B, with A and B
    of equal length: each stage is substituted into the previous A / B by
    stacks._substitute.  A real P comes back real, so its roots stay
    exactly conjugate-symmetric."""
    a, b = np.array([0.0, 1.0 + 0.0j]), np.array([1.0 + 0.0j, 0.0])
    for stage in _stages(f):
        a, b = (rows[0] for rows in _substitute(stage._stack, a, b))
        a = stage.gamma * a
    p = npp.polysub(a, npp.polymulx(b))
    return p if p.imag.any() else p.real


def denjoy_wolff(f) -> MapClass:
    """Locate the attracting point and classify the map, through the roots
    of its fixed-point polynomial P = A - z B.

    Roots and multiplicities come from selfmap._root_groups.  Roots within
    CIRCLE_BAND of the circle are boundary fixed points: simple ones are
    polished on P, and each is projected onto the circle.  Other roots
    inside go through Newton on f(z) - z.  Only points with
    |f(z) - z| <= PREIMAGE_RESIDUAL_TOL after polishing count (high-degree
    composites have spurious roots).  An interior fixed point attracts.
    The identity has no distinguished fixed point and is refused.
    """
    if is_identity(f):
        raise ValueError("the identity map has no distinguished fixed point")
    p = _fixed_point_poly(f)
    contacts = []
    for z, m in _root_groups(p):
        if abs(abs(z) - 1.0) < CIRCLE_BAND:
            omega = _polish(p, z) if m == 1 else z
            contacts.append(omega / abs(omega))
        elif abs(z) < 1.0:
            z = _interior_refine(f, z)
            if abs(z) < 1.0 - CIRCLE_BAND and abs(evaluate(f, z) - z) <= PREIMAGE_RESIDUAL_TOL:
                return _interior_class(f, z)
    return _attracting(f, contacts)


# verdicts of the (never mutated) map objects still alive; keyed by the
# object, so nothing outlives its map
_CLASSES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def classify(f) -> MapClass:
    """denjoy_wolff(f), computed once per map object."""
    _stages(f)  # refuses anything else before the weak-keyed lookup
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


# the boundary orbit loop walks chunks of this many pairs, doubling up to
# _CHUNK_MAX: an orbit that freezes early walks at most one chunk too far
_CHUNK_MIN = 64
_CHUNK_MAX = 2048


def _settle(u, v, start, prev, run):
    """Distances and freeze tests of the pairs (u[k], v[k]), complex arrays,
    at steps start + k, following the value prev and a stagnation run of
    length run: returns (rho, stagnation run at each pair, first frozen k or
    None).  Each test is the per-step loop's in lanes that round like its
    Python complex arithmetic, and raises that loop's error at the first
    pair that leaves the half-plane or whose abs overflows, unless an
    earlier pair freezes."""
    ur, ui, vr, vi = u.real, u.imag, v.real, v.imag
    with np.errstate(all="ignore"):
        # geometry.in_halfplane of each point: a NaN part is outside too
        outside = ~(ur > 0.0) | ~(vr > 0.0) | np.isnan(ui) | np.isnan(vi)
        # rho = |(v - u) / (v + conj u)|, whose denominator is 0 only
        # outside the half-plane; Python's abs gives one NaN, sign bit clear
        dr, di = vr + ur, vi - ui
        rho = np.hypot(*lanes.quot(vr - ur, vi - ui, dr, di))
        rho[np.isnan(rho)] = np.nan
        idx = np.arange(len(rho))
        checked = idx + start > 8
        steady = checked & (rho > 0) & (np.abs(rho - np.append(prev, rho[:-1])) <= 5e-16 * rho)
        run_at = idx - np.maximum.accumulate(np.where(steady, -1 - run, idx))
        hu, hv = np.hypot(ur, ui), np.hypot(vr, vi)
        frozen = checked & ((run_at >= 8) | (hu > 1e250) | (hv > 1e250) | (rho < 1e-300))
        # Python's abs raises OverflowError where a finite point's modulus
        # overflows; the freeze test reads abs(u) only before 8 stagnant
        # steps, and abs(v) only when abs(u) <= 1e250 too
        ou = np.isinf(hu) & np.isfinite(ur) & np.isfinite(ui)
        ov = np.isinf(hv) & np.isfinite(vr) & np.isfinite(vi)
        overflow = checked & (run_at < 8) & (ou | ((hu <= 1e250) & ov))
    ends = np.flatnonzero(outside | frozen)
    if not ends.size:
        return rho, run_at, None
    k = int(ends[0])
    if outside[k]:
        raise ValueError("half-plane points need positive real part")
    if overflow[k]:
        raise OverflowError("absolute value too large")
    return rho, run_at, k


def _orbit_rho_sequence(hp: HalfPlaneConjugate, points, n_max):
    """Pseudo-hyperbolic distances between the orbits of the disk `points`,
    walked in the half-plane coordinates of hp, with a frozen tail once the
    values stagnate.

    points is a list of one start (consecutive-step mode) or two starts.
    Returns (values array of length n_max + 1, frozen_at, last_w).  Each
    value is geometry.halfplane_pseudo_hyperbolic(u, v) of the pair (u, v)
    at step n.  From n = 9 the sequence freezes at the first step that ends
    a run of 8 stagnant values, has |u| or |v| > 1e250, or has rho < 1e-300.

    The orbits are walked a chunk at a time by hp.walk, the transport
    kernel's orbit loop, and each chunk's pairs are settled in lanes
    (_settle).  Values, frozen_at, last_w and errors are those of the loop
    that measures each pair before it applies hp.apply once more; a step
    that raises past the freeze is never seen.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    orbits = [[hp.to_halfplane(p)] for p in points]
    consec = len(orbits) == 1
    if consec:
        orbits[0].append(hp.apply(orbits[0][0]))
    vals = np.empty(n_max + 1)
    start, size = 0, _CHUNK_MIN
    prev, run = math.nan, 0
    while True:
        # walk on to the pair start + count, the next chunk's first
        count = min(size, n_max + 1 - start)
        size = min(2 * size, _CHUNK_MAX)
        error, walked = None, count
        for orbit in orbits:
            base = len(orbit)
            failed = hp.walk(orbit, walked)
            if failed is not None:
                # a later orbit walks no further, so its error comes first
                error, walked = failed, len(orbit) - base
        # the pairs start .. start + settle - 1, up to the one an error stops
        settle = min(count, walked + 1)
        w = [np.array(orbit, dtype=complex) for orbit in orbits]
        u, v = (w[0][:-1], w[0][1:]) if consec else w
        rho, run_at, frozen = _settle(u[:settle], v[:settle], start, prev, run)
        vals[start:start + settle] = rho
        if frozen is not None:
            vals[start + frozen:] = rho[frozen]
            return vals, start + frozen, orbits[0][frozen]
        if error is not None:
            raise error
        start += settle
        if start > n_max:
            return vals, None, orbits[0][settle]
        prev, run = rho[-1], int(run_at[-1])
        # keep only the next chunk's first pair
        for orbit in orbits:
            del orbit[:settle]


def hyperbolic_step(f, z0: complex = 0.0, n_max: int = 10000) -> StepReport:
    """s_n = rho(orbit_n, orbit_{n+1}) from z0 for n = 0..n_max, with the
    verdict classify(f).step; the sequence, the numeric evidence, stalls at a
    positive limit for positive step and decays to 0 for zero step."""
    z0 = ensure_disk_point(z0)
    cls = _boundary_class(f, "hyperbolic step")
    hp = HalfPlaneConjugate(f, cls.dw_point)
    vals, frozen_at, last_w = _orbit_rho_sequence(hp, [z0], n_max)
    if abs(last_w) > 1e200:
        angle = math.atan2(last_w.imag, last_w.real)
    else:
        angle = math.atan2((last_w + 1.0).imag, (last_w + 1.0).real)
    return StepReport(
        verdict=cls.step,
        sequence=vals,
        limit_estimate=float(vals[n_max]),
        base_point=z0,
        frozen_at=frozen_at,
        approach_angle=angle,
    )


def orbit_merging(f, z0: complex, w0: complex, n_max: int = 10000) -> np.ndarray:
    """Sequence rho(orbit of z0, orbit of w0) for n = 0..n_max."""
    z0 = ensure_disk_point(z0)
    w0 = ensure_disk_point(w0)
    hp = HalfPlaneConjugate(f, _boundary_class(f, "orbit merging").dw_point)
    vals, _, _ = _orbit_rho_sequence(hp, [z0, w0], n_max)
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
    allowed slack on the quotient bound is 1e-9 relative.  A sample is kept
    only 1e-12 inside the circle, so a level whose horodisk's center is not
    (M below about 1e-12) is refused: fewer than half of that horodisk's
    points would be kept, and none below about M = 5e-13.
    """
    if samples < 1:
        raise ValueError(f"containment check needs at least one sample, got {samples}")
    if is_identity(f):
        # every boundary point gives exact quotient preservation
        omega, a = 1.0 + 0.0j, 1.0
    else:
        cls = _boundary_class(f, "containment check")
        omega, a = cls.dw_point, float(cls.angular_derivative)

    disk = Horodisk(omega, M)
    center, radius = disk.center, disk.radius
    if not abs(center) < 1.0 - 1e-12:
        raise ValueError(f"horodisk level {M!r} is too small to sample 1e-12 inside the circle")
    rng = np.random.default_rng(seed)
    bound = a * M
    max_q = -math.inf
    worst = 0.0 + 0.0j
    n_done = 0
    while n_done < samples:
        # (u, v) rows of the values a random() call each would draw, in
        # order; a row per sample still to take, so no more are drawn
        for u, v in rng.random((min(samples - n_done, 4096), 2)).tolist():
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
