"""Numerical linearization of non-elliptic dynamics in half-plane coordinates.

Two normalized iterate sequences are provided: g_n(z) = (phi^n(z) - i y_n)/x_n,
which tends to a semiconjugacy onto a Moebius action for positive-step maps
and degenerates to the constant 1 for zero-step maps, and
h_n(z) = (phi^n(z) - z_n)/(z_{n+1} - z_n), which approximates a solution of
the linearizing equation h(phi(z)) = h(z) + 1 for zero-step parabolic maps.

All computations run on the right half-plane with the attracting point at
infinity and base orbit z_n = phi^n(1); disk data must be transported with
:meth:`HalfPlaneMap.to_halfplane` first.  Anchor identities g_n(z_0) = 1,
h_n(z_0) = 0 and h_n(z_1) = 1 are exact because iteration reuses the cached
base orbit whenever the input equals a cached orbit point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import _boundary_class, hyperbolic_step
from .geometry import cayley_to_rhp, ensure_unimodular
from .selfmap import HalfPlaneConjugate


class HalfPlaneMap:
    """A non-elliptic disk map transported so its attracting point is infinity.

    Carries the cached base orbit from w_0 = 1 (the image of the disk
    origin); the cache is append-only and shared by all evaluations.
    """

    def __init__(self, diskmap):
        cls = _boundary_class(diskmap, "half-plane transport")
        self.disk_map = diskmap
        self.map_class = cls
        self.omega = ensure_unimodular(cls.dw_point)
        self._conj = HalfPlaneConjugate(diskmap, self.omega)
        self._orbit: list[complex] = [1.0 + 0.0j]
        # first index of each orbit value, for exact cache reuse in iterate
        self._orbit_index: dict[complex, int] = {1.0 + 0.0j: 0}
        self._step_verdict: str | None = None

    def to_halfplane(self, z_disk: complex) -> complex:
        return cayley_to_rhp(self.omega.conjugate() * z_disk)

    def apply(self, w: complex) -> complex:
        return self._conj.apply(w)

    def orbit_point(self, n: int) -> complex:
        while len(self._orbit) <= n:
            w = self.apply(self._orbit[-1])
            if not w.real > 0:
                raise ArithmeticError(f"transported orbit left the half-plane at {w!r}")
            if abs(w) > 1e280:
                raise ArithmeticError(
                    f"transported orbit exceeded the numerical horizon at "
                    f"index {len(self._orbit)}; use smaller n"
                )
            self._orbit_index.setdefault(w, len(self._orbit))
            self._orbit.append(w)
        return self._orbit[n]

    def max_feasible_index(self, n_limit: int, cap: float = 1e100) -> int:
        """Largest orbit index reachable before |w| passes cap."""
        n = 0
        try:
            while n < n_limit and abs(self.orbit_point(n + 1)) <= cap:
                n += 1
        except ArithmeticError:
            pass
        return n

    def iterate(self, w: complex, n: int) -> complex:
        w = complex(w)
        if w.real <= 0:
            raise ValueError(f"half-plane point needed, got {w!r}")
        # exact cache reuse keeps the anchor identities exact
        k = self._orbit_index.get(w)
        if k is not None:
            return self.orbit_point(k + n)
        for _ in range(n):
            w = self.apply(w)
        return w

    def step_verdict(self) -> str:
        if self._step_verdict is None:
            self._step_verdict = hyperbolic_step(self.disk_map).verdict
        return self._step_verdict


def pommerenke_g(hpmap: HalfPlaneMap, z: complex, n: int) -> complex:
    """Scale-normalized iterate (phi^n(z) - i y_n)/x_n; g_n(z_0) = 1 exactly."""
    zn = hpmap.orbit_point(n)
    return (hpmap.iterate(z, n) - 1j * zn.imag) / zn.real


def baker_pommerenke_h(hpmap: HalfPlaneMap, z: complex, n: int) -> complex:
    """Step-normalized iterate (phi^n(z) - z_n)/(z_{n+1} - z_n).

    Anchored at h_n(z_0) = 0 and h_n(z_1) = 1 for every n.
    """
    zn = hpmap.orbit_point(n)
    dz = hpmap.orbit_point(n + 1) - zn
    if abs(dz) < 1e-300:
        raise ArithmeticError(
            f"base orbit is numerically stationary at n = {n}; cannot normalize"
        )
    return (hpmap.iterate(z, n) - zn) / dz


def abel_residual(h_eval, mapping, probes) -> float:
    """max over probes of |h(phi(z)) - h(z) - 1|.

    `mapping` may be a HalfPlaneMap or any callable on half-plane points.
    """
    apply = mapping.apply if isinstance(mapping, HalfPlaneMap) else mapping
    worst = 0.0
    for w in probes:
        worst = max(worst, abs(h_eval(apply(w)) - h_eval(w) - 1.0))
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
    the normalized iterates collapse to the constant 1.
    """
    probes = list(probes)
    if len(probes) < 8:
        raise ValueError("need at least 8 probe points for a stable fit")
    if hpmap.step_verdict() == "zero":
        raise ValueError(
            "zero-step map: normalized iterates degenerate to a constant, "
            "no semiconjugacy to extract"
        )
    pairs = []
    for w in probes:
        u = pommerenke_g(hpmap, w, n)
        v = pommerenke_g(hpmap, hpmap.apply(w), n)
        pairs.append((u, v))
    return _fit_mobius(pairs)


def residual_table(hpmap: HalfPlaneMap, kind: str, ns, probes) -> list[tuple]:
    """Rows (n, probe_id, residual, diff_from_prev) for CSV export.

    residual is the pointwise linearization defect |F_n(phi(z)) - F_n(z) - 1|
    for the step-normalized sequence and |F_n(z) - 1| for the
    scale-normalized one; diff_from_prev compares F at consecutive listed n.
    ns defaults to a doubling ladder capped at 1000.
    """
    if ns is None:
        ns = (125, 250, 500, 1000)
    fn = pommerenke_g if kind == "pommerenke_g" else baker_pommerenke_h
    rows = []
    prev: dict[int, complex] = {}
    for n in ns:
        for pid, w in enumerate(probes):
            val = fn(hpmap, w, n)
            if kind == "pommerenke_g":
                res = abs(val - 1.0)
            else:
                res = abs(fn(hpmap, hpmap.apply(w), n) - val - 1.0)
            diff = abs(val - prev[pid]) if pid in prev else float("nan")
            rows.append((n, pid, res, diff))
            prev[pid] = val
    return rows
