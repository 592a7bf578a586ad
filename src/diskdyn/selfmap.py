"""Finite Blaschke products: evaluation, calculus, composition, preimages.

A finite Blaschke product is gamma * prod(m_a(z)) over a finite zero multiset,
with |gamma| = 1 and the factor convention of :func:`diskdyn.geometry.mobius_factor`
(m_0 is the identity factor z).  Compositions are kept symbolic as a stage
sequence; expanding a composite into a single zero list would require
root-finding and lose exactness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial import polynomial as npp

from .geometry import (
    DISK_MARGIN,
    ensure_disk_point,
    ensure_unimodular,
    same_point,
    unit_direction,
)

# residual |f(root) - w| required after polishing
PREIMAGE_RESIDUAL_TOL = 1e-10


class RootFindingError(RuntimeError):
    """Raised when polynomial root polishing cannot reach the target residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


def _normalize_zeros(zeros) -> tuple[tuple[complex, int], ...]:
    """Validated (zero, multiplicity) pairs; exactly equal zeros are merged
    into their first occurrence, keeping first-occurrence order."""
    merged: dict[complex, int] = {}
    for entry in zeros:
        if isinstance(entry, tuple):
            a, mult = entry
        else:
            a, mult = entry, 1
        a = ensure_disk_point(a)
        mult = int(mult)
        if mult < 1:
            raise ValueError(f"zero multiplicity must be >= 1, got {mult}")
        merged[a] = merged.get(a, 0) + mult
    if not merged:
        raise ValueError("a finite Blaschke product needs at least one zero")
    return tuple(merged.items())


class FiniteBlaschkeProduct:
    """gamma * prod over zeros (a, mult) of mobius_factor(a, .)^mult.

    Repeated entries of one zero are merged, so every spelling of a map has
    the same ``zeros``.  ``factors`` holds (a, conj(a), -a/|a|, mult) per zero
    (direction 1 at the origin), computed once and read by every consumer.
    """

    def __init__(self, gamma: complex = 1.0, zeros=((0.0, 1),), hp_exact=None):
        self.gamma = ensure_unimodular(gamma)
        self.zeros = _normalize_zeros(zeros)
        self.factors = tuple(
            (a, a.conjugate(), 1.0 if a == 0 else -unit_direction(a), mult)
            for a, mult in self.zeros
        )
        # products with many zeros are evaluated as numpy arrays
        self._arrays = None
        if len(self.zeros) > 32:
            a, ac, u, m = (np.array(col) for col in zip(*self.factors))
            self._arrays = (a == 0, a, ac, u, m)
        # optional exact right-half-plane form (used by presets that are
        # defined natively in half-plane coordinates)
        self.hp_exact = hp_exact

    @property
    def degree(self) -> int:
        return sum(m for _, m in self.zeros)

    def __call__(self, z: complex) -> complex:
        return evaluate(self, z)

    def __repr__(self):
        return f"FiniteBlaschkeProduct(gamma={self.gamma!r}, zeros={self.zeros!r})"

    @cached_property
    def coefficients(self) -> tuple[np.ndarray, np.ndarray]:
        """Coefficients (low to high) of N, D with f = gamma * N / D.

        Each nonzero zero a contributes numerator -(a/|a|)(z - a) and
        denominator (1 - conj(a) z); a zero at the origin contributes z.
        Built on first use: most products are only ever evaluated.
        """
        num = np.array([1.0 + 0.0j])
        den = np.array([1.0 + 0.0j])
        for a, ac, u, mult in self.factors:
            if a == 0:
                fac_n = np.array([0.0, 1.0 + 0.0j])
                fac_d = np.array([1.0 + 0.0j])
            else:
                fac_n = np.array([-u * a, u])
                fac_d = np.array([1.0 + 0.0j, -ac])
            for _ in range(mult):
                num = npp.polymul(num, fac_n)
                den = npp.polymul(den, fac_d)
        # every caller shares these arrays
        num.flags.writeable = False
        den.flags.writeable = False
        return num, den


@dataclass(frozen=True)
class CompositeMap:
    """Ordered stages applied left to right: stages[0] first."""

    stages: tuple[FiniteBlaschkeProduct, ...]

    def __post_init__(self):
        if not self.stages:
            raise ValueError("composite map needs at least one stage")

    @property
    def degree(self) -> int:
        d = 1
        for s in self.stages:
            d *= s.degree
        return d

    def __call__(self, z: complex) -> complex:
        return evaluate(self, z)


def _stages(f) -> tuple[FiniteBlaschkeProduct, ...]:
    if isinstance(f, FiniteBlaschkeProduct):
        return (f,)
    if isinstance(f, CompositeMap):
        return f.stages
    raise TypeError(f"not a Blaschke-type map: {f!r}")


def degree(f) -> int | None:
    """Degree of a map, or None for a plain callable."""
    if isinstance(f, (FiniteBlaschkeProduct, CompositeMap)):
        return f.degree
    return None


def _eval_fbp(f: FiniteBlaschkeProduct, z: complex) -> complex:
    if f._arrays is not None:
        origin, a, ac, u, m = f._arrays
        factors = np.where(origin, z, u * (z - a) / (1.0 - ac * z))
        return complex(f.gamma * np.prod(factors ** m))
    val = f.gamma
    for a, ac, u, mult in f.factors:
        if a == 0:
            fac = z
        else:
            fac = u * (z - a) / (1.0 - ac * z)
        val *= fac ** mult if mult > 1 else fac
    return val


def evaluate(f, z: complex) -> complex:
    """Evaluate a map at z with |z| <= 1 (boundary allowed)."""
    z = complex(z)
    if abs(z) > 1.0 + 1e-12:
        raise ValueError(f"evaluation point {z!r} is outside the closed disk")
    if not isinstance(f, (FiniteBlaschkeProduct, CompositeMap)):
        return complex(f(z))
    for stage in _stages(f):
        z = _eval_fbp(stage, z)
    return z


def _jet_fbp(f: FiniteBlaschkeProduct, z: complex) -> tuple[complex, complex, complex]:
    """(f, f', f'') of a single product at z, assembled factor by factor."""
    v, d1, d2 = f.gamma, 0.0 + 0.0j, 0.0 + 0.0j
    for a, ac, u, mult in f.factors:
        if a == 0:
            fv, fd1, fd2 = z, 1.0 + 0.0j, 0.0 + 0.0j
        else:
            den = 1.0 - ac * z
            fv = u * (z - a) / den
            fd1 = u * (1.0 - abs(a) ** 2) / den ** 2
            fd2 = 2.0 * ac * fd1 / den
        for _ in range(mult):
            v, d1, d2 = (
                v * fv,
                d1 * fv + v * fd1,
                d2 * fv + 2.0 * d1 * fd1 + v * fd2,
            )
    return v, d1, d2


def jet(f, z: complex) -> tuple[complex, complex, complex]:
    """Value, first and second derivative at z (chain rule through stages)."""
    z = complex(z)
    if isinstance(f, FiniteBlaschkeProduct):
        return _jet_fbp(f, z)
    if isinstance(f, CompositeMap):
        v, d1, d2 = z, 1.0 + 0.0j, 0.0 + 0.0j
        for stage in f.stages:
            sv, sd1, sd2 = _jet_fbp(stage, v)
            v, d1, d2 = sv, sd1 * d1, sd2 * d1 ** 2 + sd1 * d2
        return v, d1, d2
    # plain callable: central differences
    h = 1e-6
    fp = complex(f(z + h))
    fm = complex(f(z - h))
    fz = complex(f(z))
    return fz, (fp - fm) / (2 * h), (fp - 2 * fz + fm) / h ** 2


def derivative(f, z: complex) -> complex:
    """Analytic derivative at z (exact chain rule for composites)."""
    return jet(f, z)[1]


def compose(f, g) -> CompositeMap:
    """Map z -> f(g(z)); degree multiplies."""
    return CompositeMap(_stages(g) + _stages(f))


def iterate(f, n: int, z: complex) -> complex:
    """n-th iterate applied to z; n = 0 returns z."""
    if n < 0:
        raise ValueError("iteration count must be nonnegative")
    z = complex(z)
    for _ in range(n):
        z = evaluate(f, z)
    return z


def identity_map() -> FiniteBlaschkeProduct:
    """The map z -> z as a degree-1 product."""
    return FiniteBlaschkeProduct(1.0, ((0.0, 1),))


def is_identity(f) -> bool:
    if isinstance(f, FiniteBlaschkeProduct):
        return f.gamma == 1.0 and f.zeros == ((0.0 + 0.0j, 1),)
    if isinstance(f, CompositeMap):
        return all(is_identity(s) for s in f.stages)
    return False


# ----------------------------------------------------------------------------
# preimages
# ----------------------------------------------------------------------------


def _newton_polish(f, z, target=0.0, order=0):
    """Two guarded Newton steps on jet(f, z)[order] = target."""
    for _ in range(2):
        j = jet(f, z)
        if j[order + 1] == 0:
            break
        step = (j[order] - target) / j[order + 1]
        if abs(step) > 0.1:
            break
        z = z - step
    return z


def _cluster(points: np.ndarray, tol: float) -> list[list[int]]:
    """Union-find clustering of points with Euclidean threshold tol."""
    n = len(points)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(points[i] - points[j]) <= tol:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def _deflation_ok(poly: np.ndarray, root: complex, mult: int) -> bool:
    """Check that root is an m-fold root of poly by synthetic division residuals."""
    scale = float(np.max(np.abs(poly))) or 1.0
    work = poly.copy()
    for _ in range(mult):
        rem = npp.polyval(root, work)
        if abs(rem) > 1e-10 * scale:
            return False
        # divide by (z - root)
        q = np.empty(len(work) - 1, dtype=complex)
        acc = 0.0 + 0.0j
        for k in range(len(work) - 1, 0, -1):
            acc = work[k] + acc * root
            q[k - 1] = acc
        work = q
        if len(work) == 0:
            break
    return True


def _root_groups(poly: np.ndarray) -> list[tuple[complex, int]]:
    """Roots of poly with multiplicities: a cluster within 2e-5 that passes
    deflation becomes its mean with the cluster size, every other root stays
    single (multiplicity 1) and unpolished."""
    roots = npp.polyroots(poly)
    groups: list[tuple[complex, int]] = []
    for group in _cluster(roots, 2e-5):
        if len(group) > 1:
            center = complex(np.mean(roots[group]))
            if _deflation_ok(poly, center, len(group)):
                groups.append((center, len(group)))
                continue
        # singletons and accidental clusters
        groups.extend((complex(roots[i]), 1) for i in group)
    return groups


def _merge_pseudo_hyperbolic(cands: list[tuple[complex, int]]) -> list[tuple[complex, int]]:
    """Merge candidates that are the same point, into the first of them."""
    merged: list[tuple[complex, int]] = []
    for z, m in cands:
        for i, (zi, mi) in enumerate(merged):
            if same_point(z, zi):
                merged[i] = (zi, mi + m)
                break
        else:
            merged.append((z, m))
    return merged


def _preimages_fbp(f: FiniteBlaschkeProduct, w: complex) -> list[tuple[complex, int]]:
    w = ensure_disk_point(w)
    if w == 0:
        # the (merged) zero multiset is the exact fiber over 0
        return sorted(f.zeros, key=lambda t: (t[0].real, t[0].imag))
    num, den = f.coefficients
    cands = _merge_pseudo_hyperbolic([
        (_newton_polish(f, z, target=w) if m == 1 else z, m)
        for z, m in _root_groups(npp.polysub(f.gamma * num, w * den))
    ])
    result: list[tuple[complex, int]] = []
    worst = 0.0
    for z, m in cands:
        res = abs(evaluate(f, z) - w)
        worst = max(worst, res)
        if res > PREIMAGE_RESIDUAL_TOL:
            raise RootFindingError(
                f"preimage of {w!r} under degree-{f.degree} map did not converge", res
            )
        try:
            result.append((ensure_disk_point(z), m))
        except ValueError as exc:
            raise RootFindingError(
                f"preimage root {z!r} of {w!r} landed outside the open disk", res
            ) from exc
    total = sum(m for _, m in result)
    if total != f.degree:
        raise RootFindingError(
            f"preimage count {total} does not match degree {f.degree} for {w!r}", worst
        )
    result.sort(key=lambda t: (t[0].real, t[0].imag))
    return result


def preimages(f, w: complex) -> list[tuple[complex, int]]:
    """All solutions of f(z) = w in the disk, with multiplicities.

    Composites are back-solved stage by stage, which keeps the polynomial
    degrees equal to the stage degrees.  Returns pairs sorted by (re, im);
    the fiber of a product over 0 is its merged zero list in that order.
    """
    if isinstance(f, FiniteBlaschkeProduct):
        return _preimages_fbp(f, w)
    if isinstance(f, CompositeMap):
        layer: list[tuple[complex, int]] = [(complex(w), 1)]
        for stage in reversed(f.stages):
            nxt: list[tuple[complex, int]] = []
            for point, mult in layer:
                for z, m in _preimages_fbp(stage, point):
                    nxt.append((z, m * mult))
            layer = _merge_pseudo_hyperbolic(nxt)
        layer.sort(key=lambda t: (t[0].real, t[0].imag))
        return layer
    raise TypeError(f"preimages requires a Blaschke-type map, got {f!r}")


def critical_points(f) -> list[tuple[complex, int]]:
    """Zeros of f' inside the disk; a degree-d product has exactly d - 1."""
    stages = _stages(f)
    if len(stages) > 1:
        # f = s_k o ... o s_1; critical points are those of s_1 plus the
        # preimages under the partial compositions of later-stage ones
        result: list[tuple[complex, int]] = []
        prefix: CompositeMap | FiniteBlaschkeProduct = stages[0]
        result.extend(critical_points(stages[0]))
        for k in range(1, len(stages)):
            for c, m in critical_points(stages[k]):
                for z, mz in preimages(prefix, c):
                    result.append((z, m * mz))
            prefix = CompositeMap(stages[: k + 1])
        result = _merge_pseudo_hyperbolic(result)
        result.sort(key=lambda t: (t[0].real, t[0].imag))
        return result

    f = stages[0]
    if f.degree == 1:
        return []
    num, den = f.coefficients
    dnum = npp.polysub(npp.polymul(npp.polyder(num), den), npp.polymul(num, npp.polyder(den)))
    inside = _merge_pseudo_hyperbolic([
        (_newton_polish(f, z, order=1), m)
        for z, m in _root_groups(dnum)
        if abs(z) < 1.0 - DISK_MARGIN
    ])
    total = sum(m for _, m in inside)
    if total != f.degree - 1:
        raise RootFindingError(
            f"found {total} critical points for a degree-{f.degree} product", math.nan
        )
    inside.sort(key=lambda t: (t[0].real, t[0].imag))
    return inside


# ----------------------------------------------------------------------------
# boundary derivative
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundaryDerivativeReport:
    contact: complex
    boundary_value: complex
    angular_derivative: float
    finite: bool
    radii: tuple[float, ...]
    residual: float


def angular_derivative(f, omega: complex, k_min: int = 4, k_max: int = 24) -> BoundaryDerivativeReport:
    """Extrapolated boundary quotient (1 - |f(r omega)|)/(1 - r) at r -> 1.

    Samples r = 1 - 2^-k for k in [k_min, k_max] and runs a Richardson
    tableau for the error series in powers of 1 - r.  The residual is the
    gap between the last two extrapolants and is reported untouched.
    """
    omega = ensure_unimodular(omega)
    radii = [1.0 - 2.0 ** (-k) for k in range(k_min, k_max + 1)]
    q = np.array([(1.0 - abs(evaluate(f, r * omega))) / (1.0 - r) for r in radii])

    finite = True
    if q[-1] > 4.0 * max(1.0, q[0]) and q[-1] > q[-5]:
        finite = False

    col = q
    for j in range(1, 4):
        col = (2.0 ** j * col[1:] - col[:-1]) / (2.0 ** j - 1.0)
    estimate = float(col[-1])
    residual = float(abs(col[-1] - col[-2]))
    value = evaluate(f, omega)
    return BoundaryDerivativeReport(
        contact=omega,
        boundary_value=value,
        angular_derivative=estimate if finite else math.inf,
        finite=finite,
        radii=tuple(radii),
        residual=residual,
    )


# ----------------------------------------------------------------------------
# right-half-plane conjugate
# ----------------------------------------------------------------------------


def _transport_poly(p: np.ndarray, omega: complex, deg: int) -> np.ndarray:
    """Coefficients of (w + 1)^deg * p(omega (w - 1)/(w + 1)), low to high."""
    acc = np.zeros(deg + 1, dtype=complex)
    wm1 = np.array([-1.0 + 0.0j, 1.0])
    wp1 = np.array([1.0 + 0.0j, 1.0])
    for j, c in enumerate(p):
        term = np.array([c * omega ** j])
        for _ in range(j):
            term = npp.polymul(term, wm1)
        for _ in range(deg - j):
            term = npp.polymul(term, wp1)
        acc[: len(term)] += term
    return acc


class HalfPlaneConjugate:
    """The map transported to the right half-plane with the attracting
    boundary point sent to infinity.

    apply() evaluates C(conj(omega) f(omega C^{-1}(w))) through rational
    stage forms, switching to 1/w coordinates for |w| > 1 so that orbits
    may grow to ~1e280 without losing accuracy near the fixed point.
    """

    def __init__(self, f, omega: complex = 1.0):
        self.omega = ensure_unimodular(omega)
        if getattr(f, "hp_exact", None) is not None and self.omega == 1.0:
            self._exact = f.hp_exact
            self._stages = None
            return
        self._exact = None
        stages = _stages(f)
        built = []
        for idx, stage in enumerate(stages):
            num, den = stage.coefficients
            d = stage.degree
            in_rot = self.omega if idx == 0 else 1.0
            tn = _transport_poly(num, in_rot, d) * stage.gamma
            td = _transport_poly(den, in_rot, d)
            out_rot = self.omega.conjugate() if idx == len(stages) - 1 else 1.0
            a = npp.polyadd(td, out_rot * tn)
            b = npp.polysub(td, out_rot * tn)
            # a stage fixing infinity has exact zero leading denominator
            # coefficient; snap rounding noise so huge orbits stay stable
            if abs(b[-1]) < 1e-9 * np.max(np.abs(b)):
                b = b.copy()
                b[-1] = 0.0
            # pad to one length; keep (a_k, b_k) pairs as numpy scalars,
            # highest degree first for w and lowest first for 1/w
            n = max(len(a), len(b))
            a = np.pad(a, (0, n - len(a)))
            b = np.pad(b, (0, n - len(b)))
            built.append((tuple(zip(a[::-1], b[::-1])), tuple(zip(a, b))))
        self._stages = built

    def apply(self, w: complex) -> complex:
        if self._exact is not None:
            return self._exact(w)
        # per-stage Cayley transports telescope, so stages chain directly;
        # each stage is a Horner step in w, or in 1/w once |w| > 1
        for in_w, in_inverse in self._stages:
            x, coeffs = (w, in_w) if abs(w) <= 1.0 else (1.0 / w, in_inverse)
            p, q = coeffs[0]
            for ca, cb in coeffs[1:]:
                p = ca + p * x
                q = cb + q * x
            w = p / q
        return w
