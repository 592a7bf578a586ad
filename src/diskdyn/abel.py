"""Numerical linearization of non-elliptic dynamics in half-plane coordinates.

Two normalized iterate sequences are provided: g_n(z) = (phi^n(z) - i y_n)/x_n,
which tends to a semiconjugacy onto a Moebius action for positive-step maps
and degenerates to the constant 1 for zero-step maps, and
h_n(z) = (phi^n(z) - z_n)/(z_{n+1} - z_n), which approximates a solution of
the linearizing equation h(phi(z)) = h(z) + 1 for zero-step parabolic maps.

All computations run on the right half-plane with the attracting point at
infinity and base orbit z_n = phi^n(1); disk data must be transported with
:meth:`HalfPlaneMap.to_halfplane` first.  Anchor identities g_n(z_0) = 1,
h_n(z_0) = 0 and h_n(z_1) = 1 are exact because apply and iterate run the
one transport kernel: iterating an orbit point repeats the base orbit's
arithmetic bit for bit.
"""

from __future__ import annotations

import cmath
import contextlib
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import _CHUNK_MAX, _CHUNK_MIN, _boundary_class
from .geometry import in_halfplane
from .selfmap import HalfPlaneConjugate

# the probes 1 + 0.5 exp(2 pi i k / 10) of the abel command's residual table
# and semiconjugacy fit, and of criterion 8
PROBES = tuple(1.0 + 0.5 * cmath.exp(2j * cmath.pi * k / 10) for k in range(10))


class HalfPlaneMap(HalfPlaneConjugate):
    """The HalfPlaneConjugate of a non-elliptic disk map at its attracting
    point, so that point is infinity.

    Adds the map's step verdict ("positive" or "zero", from its
    classification) and the cached base orbit from w_0 = 1 (the image of the
    disk origin); the cache is append-only and shared by all evaluations.
    Every orbit it hands out grows by one walk (_walk) and keeps the points
    before the first one that _within_horizon refuses: the points, values
    and errors of a loop that steps apply and checks each point once.
    """

    def __init__(self, diskmap):
        cls = _boundary_class(diskmap, "half-plane transport")
        super().__init__(diskmap, cls.dw_point)
        self.step = cls.step
        self._orbit: list[complex] = [1.0 + 0.0j]

    def _walk(self, orbit: list[complex], count: int, stop: float = math.inf) -> None:
        """Extend orbit by count points of the kernel's walk, in chunks of
        _CHUNK_MIN points doubling to _CHUNK_MAX, up to the first chunk that
        ends past |w| = stop.  Keeps the points before the first that
        _within_horizon refuses and raises its error, else the walk's own."""
        end, size = len(orbit) + count, _CHUNK_MIN
        while (start := len(orbit)) < end:
            error = self.walk(orbit, min(size, end - start))
            size = min(2 * size, _CHUNK_MAX)
            for k in range(start, len(orbit)):
                w = orbit[k]
                # _within_horizon's tests, inline: a numpy pass over the new
                # points raised perfbench's peak RSS for no time it saved
                if not (w.real > 0.0 and w.imag == w.imag and abs(w) <= 1e280):
                    del orbit[k:]
                    _within_horizon(w, k)  # raises: it refuses w as the test did
            if error is not None:
                raise error
            if abs(orbit[-1]) > stop:
                return

    def orbit_point(self, n: int) -> complex:
        if n < 0:
            raise ValueError("orbit index must be nonnegative")
        orbit = self._orbit
        if n >= len(orbit):
            self._walk(orbit, n + 1 - len(orbit))
        return orbit[n]

    def max_feasible_index(self, n_limit: int) -> int:
        """Largest orbit index, at most n_limit, before |w| passes 1e100 or
        the orbit refuses a point; the walk stops at the chunk passing 1e100."""
        orbit = self._orbit
        with contextlib.suppress(ArithmeticError):
            self._walk(orbit, n_limit + 1 - len(orbit), stop=1e100)
        n = max(0, min(n_limit, len(orbit) - 1))
        return next((k - 1 for k in range(1, n + 1) if abs(orbit[k]) > 1e100), n)

    def iterate(self, w: complex, n: int) -> complex:
        if n < 0:
            raise ValueError("iteration count must be nonnegative")
        orbit = [_halfplane_point(w)]
        self._walk(orbit, n)
        return orbit[-1]


def _within_horizon(w: complex, n: int) -> complex:
    """w, the n-th point of a transported orbit, refused (ArithmeticError)
    off the half-plane or past |w| = 1e280."""
    if not in_halfplane(w):
        raise ArithmeticError(f"transported orbit left the half-plane at {w!r}")
    if abs(w) > 1e280:
        raise ArithmeticError(
            f"transported orbit exceeded the numerical horizon at index {n}; use smaller n"
        )
    return w


def _halfplane_point(w) -> complex:
    """complex(w), refused unless it is a half-plane point (in_halfplane)
    with finite parts: the transport kernel steps those as its unfolded
    lines would (transport._stage_lines)."""
    w = complex(w)
    if not (in_halfplane(w) and cmath.isfinite(w)):
        raise ValueError(f"half-plane point needed, got {w!r}")
    return w


def _scale_normalized(kind: str) -> bool:
    """True for kind "pommerenke_g", False for "baker_pommerenke_h"."""
    if kind not in ("pommerenke_g", "baker_pommerenke_h"):
        raise ValueError(f"kind must be pommerenke_g or baker_pommerenke_h, got {kind!r}")
    return kind == "pommerenke_g"


def _normalized(hpmap: HalfPlaneMap, kind: str, n: int, wn: complex) -> complex:
    """F_n(z) from wn = phi^n(z): (wn - i y_n)/x_n for kind "pommerenke_g",
    (wn - z_n)/(z_{n+1} - z_n) for kind "baker_pommerenke_h"."""
    scale = _scale_normalized(kind)
    zn = hpmap.orbit_point(n)
    if scale:
        return (wn - 1j * zn.imag) / zn.real
    dz = hpmap.orbit_point(n + 1) - zn
    if abs(dz) < 1e-300:
        raise ArithmeticError(
            f"base orbit is numerically stationary at n = {n}; cannot normalize"
        )
    return (wn - zn) / dz


def pommerenke_g(hpmap: HalfPlaneMap, z: complex, n: int) -> complex:
    """Scale-normalized iterate (phi^n(z) - i y_n)/x_n; g_n(z_0) = 1 exactly."""
    return _normalized(hpmap, "pommerenke_g", n, hpmap.iterate(z, n))


def baker_pommerenke_h(hpmap: HalfPlaneMap, z: complex, n: int) -> complex:
    """Step-normalized iterate (phi^n(z) - z_n)/(z_{n+1} - z_n).

    Anchored at h_n(z_0) = 0 and h_n(z_1) = 1 for every n.
    """
    return _normalized(hpmap, "baker_pommerenke_h", n, hpmap.iterate(z, n))


def abel_residual(h_eval, mapping, probes) -> float:
    """max over probes of |h(phi(z)) - h(z) - 1|.

    `mapping` may be a HalfPlaneConjugate (a HalfPlaneMap is one) or any
    callable on half-plane points.
    """
    apply = mapping.apply if isinstance(mapping, HalfPlaneConjugate) else mapping
    return worst_residual(abs(h_eval(apply(w)) - h_eval(w) - 1.0) for w in probes)


def worst_residual(residuals) -> float:
    """The largest of the residuals, 0.0 for none, and NaN once any is NaN:
    max() keeps its first argument when a comparison with NaN fails, so it
    drops a NaN that does not come first."""
    worst = 0.0
    for r in residuals:
        if r > worst or r != r:
            worst = r
    return worst


def translation_abel(w: complex) -> complex:
    """Exact linearizer of the downward translation w -> w - i: h(w) = i w.

    Satisfies h(w - i) = h(w) + 1 with image in the upper half-plane.
    """
    return 1j * w


@dataclass(frozen=True)
class MobiusFit:
    """Least-squares Moebius map through point pairs, with classification."""

    coefficients: tuple[complex, complex, complex, complex]
    residual: float
    parabolic: bool
    multiplier: complex | None
    fixed_points: tuple[complex, ...]

    def __call__(self, w: complex) -> complex:
        a, b, c, d = self.coefficients
        return (a * w + b) / (c * w + d)


def _fit_mobius(pairs) -> MobiusFit:
    rows = []
    for u, v in pairs:
        rows.append([u, 1.0, -v * u, -v])
    m = np.array(rows, dtype=complex)
    _, s, vh = np.linalg.svd(m)
    if s[2] < 1e-10 * s[0]:
        raise ValueError("degenerate probe configuration: Moebius fit is not unique")
    # svd returns V^H; the null direction is the conjugate of its last row
    a, b, c, d = (complex(v) for v in vh[-1].conj())
    fit = (a, b, c, d)
    residual = float(max(abs((a * u + b) / (c * u + d) - v) for u, v in pairs))

    scale = max(abs(x) for x in fit)
    if abs(c) < 1e-9 * scale:
        mult = a / d
        parabolic = bool(abs(mult - 1.0) < 1e-6)
        fixed = (complex("inf"),) if parabolic else (b / (d - a), complex("inf"))
        return MobiusFit(fit, residual, parabolic, mult, fixed)
    roots = np.roots([c, d - a, -b])
    gap = abs(roots[0] - roots[1])
    parabolic = bool(gap < 1e-6 * max(1.0, abs(roots[0]), abs(roots[1])))
    return MobiusFit(fit, residual, parabolic, None, tuple(complex(r) for r in roots))


def extract_semiconjugacy(hpmap: HalfPlaneMap, n: int, probes) -> MobiusFit:
    """Fit the Moebius map psi with g_n(phi(z)) ~ psi(g_n(z)) over probes.

    Only meaningful for positive-step maps; refuses zero-step inputs, where
    the normalized iterates collapse to the constant 1.  Each probe's
    trajectory is walked once: phi^n(phi(z)) is the next point after phi^n(z).
    """
    probes = list(probes)
    if len(probes) < 8:
        raise ValueError("need at least 8 probe points for a stable fit")
    if hpmap.step == "zero":
        raise ValueError(
            "zero-step map: normalized iterates degenerate to a constant, "
            "no semiconjugacy to extract"
        )
    pairs = []
    for w in probes:
        wn = hpmap.iterate(w, n)
        pairs.append((_normalized(hpmap, "pommerenke_g", n, wn),
                      _normalized(hpmap, "pommerenke_g", n, hpmap.apply(wn))))
    return _fit_mobius(pairs)


def residual_table(hpmap: HalfPlaneMap, kind: str, ns, probes) -> list[tuple]:
    """Rows (n, probe_id, residual, diff_from_prev) for CSV export.

    residual is the pointwise linearization defect |F_n(phi(z)) - F_n(z) - 1|
    for the step-normalized sequence and |F_n(z) - 1| for the
    scale-normalized one; diff_from_prev compares F at consecutive listed n.
    Each probe's trajectory is walked once in the transport kernel, to
    max(ns) + 1: phi^n(phi(z)) is its next point.  A walk that ends early
    raises its error at the first listed n whose n + 1 it did not reach.
    """
    scale = _scale_normalized(kind)
    found = {}  # (n, probe_id) -> (F_n(z), residual)
    for pid, probe in enumerate(probes):
        orbit = [_halfplane_point(probe)]
        # an empty ns walks no step
        error = hpmap.walk(orbit, max(ns, default=-1) + 1)
        for n in sorted(set(ns)):
            if n + 1 >= len(orbit):
                raise error
            val = _normalized(hpmap, kind, n, orbit[n])
            if scale:
                res = abs(val - 1.0)
            else:
                res = abs(_normalized(hpmap, kind, n, orbit[n + 1]) - val - 1.0)
            found[n, pid] = (val, res)
    rows, prev_n = [], None
    for n in ns:
        for pid in range(len(probes)):
            val, res = found[n, pid]
            diff = float("nan") if prev_n is None else abs(val - found[prev_n, pid][0])
            rows.append((n, pid, res, diff))
        prev_n = n
    return rows
