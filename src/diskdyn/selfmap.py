"""Finite Blaschke products: evaluation, calculus, composition, preimages.

A finite Blaschke product is gamma * prod(m_a(z)) over a finite zero multiset,
with |gamma| = 1 and the factor convention of :func:`diskdyn.geometry.mobius_factor`
(m_0 is the identity factor z).  Compositions are kept symbolic as a stage
sequence; expanding a composite into a single zero list would require
root-finding and lose exactness.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np
from numpy.polynomial import polynomial as npp

from . import lanes
from .geometry import (
    DISK_MARGIN,
    cayley_to_rhp,
    ensure_disk_point,
    ensure_unimodular,
    same_point,
    unit_direction,
)
from .stacks import _ProductStack
from .transport import _clark_stage, _clark_sums, _kernel, _stage_arguments

# residual |f(root) - w| required after polishing
PREIMAGE_RESIDUAL_TOL = 1e-10

# polynomial roots closer than this are tested as one multiple root
CLUSTER_RADIUS = 1e-3

# batches of at least this many nonzero targets polish their fibers in lanes
# (_lane_fibers), where on a degree-2 product the lanes and the per-fiber
# loop took the same time; smaller batches, and every lone preimages call,
# go fiber by fiber
_LANE_MIN_TARGETS = 20

# products of more distinct zeros are evaluated with numpy by _eval_fbp,
# which lanes.value does not mirror
_SCALAR_MAX_ZEROS = 32

# |p| <= this * sum |p_k| |z|^k (Horner's rounding scale; <= 2e-15 at
# example62's triple fixed point) at a cluster's polished mean z makes it one
# multiple root; at the midpoint of two simple roots delta apart |p| is about
# |p''| delta^2 / 8
MULTIPLE_ROOT_TOL = 1e-13


class RootFindingError(RuntimeError):
    """Raised when polynomial root polishing cannot reach the target residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


def _multiplicity(mult) -> int:
    """int(mult) of an integral multiplicity; 2.5, NaN, infinity or a bool
    is refused, not truncated or read as a number."""
    try:
        m = None if isinstance(mult, (bool, np.bool_)) else int(mult)
    except (TypeError, ValueError, OverflowError):
        m = None
    if m is None or m != mult:
        raise ValueError(f"zero multiplicity must be an integer, got {mult!r}")
    return m


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
        mult = _multiplicity(mult)
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
    (direction 1 at the origin), and ``_stack`` the same columns as arrays,
    each built on first use; evaluation reads the stack alone above
    _SCALAR_MAX_ZEROS zeros.
    """

    def __init__(self, gamma: complex = 1.0, zeros=((0.0, 1),)):
        self.gamma = ensure_unimodular(gamma)
        self.zeros = _normalize_zeros(zeros)

    @classmethod
    def _from_table(cls, gamma: complex, zeros) -> FiniteBlaschkeProduct:
        """The product of a table the program has validated already (a
        unimodular complex gamma, (point, multiplicity) pairs of distinct
        disk points as complex and integer multiplicities >= 1), taken as it
        is: nothing is checked or merged."""
        f = cls.__new__(cls)
        f.gamma, f.zeros = gamma, tuple(zeros)
        return f

    @cached_property
    def factors(self) -> tuple:
        return tuple((a, a.conjugate(), 1.0 if a == 0 else -unit_direction(a), mult)
                     for a, mult in self.zeros)

    @property
    def degree(self) -> int:
        return sum(m for _, m in self.zeros)

    def __call__(self, z: complex) -> complex:
        return evaluate(self, z)

    def __repr__(self):
        return f"FiniteBlaschkeProduct(gamma={self.gamma!r}, zeros={self.zeros!r})"

    @cached_property
    def _stack(self) -> _ProductStack:
        """This product as a stack of one; up to _SCALAR_MAX_ZEROS zeros its
        u column is copied from factors, which the scalar loop reads anyway."""
        u = None
        if len(self.zeros) <= _SCALAR_MAX_ZEROS:
            u = np.array([[unit for _, _, unit, _ in self.factors]], dtype=complex)
        return _ProductStack(np.array([self.gamma]),
                             np.array([[a for a, _ in self.zeros]], dtype=complex),
                             [m for _, m in self.zeros], u)


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
    """The product stages of a map, first applied first: the one place that
    refuses anything but a product or a composite."""
    if isinstance(f, FiniteBlaschkeProduct):
        return (f,)
    if isinstance(f, CompositeMap):
        return f.stages
    raise TypeError(f"not a Blaschke-type map: {f!r}")


def _factor_vector(f: FiniteBlaschkeProduct, z: complex) -> np.ndarray:
    """The zero factors of f at z, each to its multiplicity, in numpy over
    f's stack: what _eval_fbp multiplies past _SCALAR_MAX_ZEROS zeros.  Only
    the columns of multiplicity other than 1 are raised, since numpy's
    complex power gives x ** 1 as x."""
    s = f._stack
    factors = np.where(s._origin, z, s._u[0] * (z - s.zeros[0]) / (1.0 - s._conj[0] * z))
    cols, mults = s._raised
    if len(cols):
        factors[cols] **= mults
    return factors


def _eval_fbp(f: FiniteBlaschkeProduct, z: complex) -> complex:
    if len(f.zeros) > _SCALAR_MAX_ZEROS:
        return complex(f.gamma * np.prod(_factor_vector(f, z)))
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
    if not abs(z) <= 1.0 + 1e-12:
        raise ValueError(f"evaluation point {z!r} is outside the closed disk")
    for stage in _stages(f):
        z = _eval_fbp(stage, z)
    return z


def _jet_fbp(f: FiniteBlaschkeProduct, z: complex) -> tuple[complex, complex, complex]:
    """(f, f', f'') of a single product at z, assembled factor by factor;
    above _SCALAR_MAX_ZEROS zeros the value is _eval_fbp's, so that it is
    evaluate's bit for bit."""
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
    if len(f.zeros) > _SCALAR_MAX_ZEROS:
        v = _eval_fbp(f, z)
    return v, d1, d2


def jet(f, z: complex) -> tuple[complex, complex, complex]:
    """Value, first and second derivative at z (chain rule through stages)."""
    z = complex(z)
    if isinstance(f, FiniteBlaschkeProduct):
        return _jet_fbp(f, z)
    v, d1, d2 = z, 1.0 + 0.0j, 0.0 + 0.0j
    for stage in _stages(f):
        sv, sd1, sd2 = _jet_fbp(stage, v)
        v, d1, d2 = sv, sd1 * d1, sd2 * d1 ** 2 + sd1 * d2
    return v, d1, d2


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
    return all(s.gamma == 1.0 and s.zeros == ((0.0 + 0.0j, 1),) for s in _stages(f))


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


def _cluster(points: np.ndarray) -> list[list[int]]:
    """Union-find clustering of points within CLUSTER_RADIUS of each other."""
    n = len(points)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(points[i] - points[j]) <= CLUSTER_RADIUS:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def _polish(p: np.ndarray, z: complex, order: int = 0) -> complex:
    """Newton from z on the order-th derivative of p, where a root of
    multiplicity order + 1 is simple."""
    q = npp.polyder(p, order)
    dq = npp.polyder(q)
    for _ in range(30):
        step = npp.polyval(z, q) / npp.polyval(z, dq)
        z = z - step
        if abs(step) <= 1e-16:
            break
    return complex(z)


def _stacked_roots(polys: np.ndarray) -> np.ndarray:
    """Roots of each row of polys, sorted, from one stacked eigenvalue solve.

    Each row gets the companion matrix of ``npp.polycompanion`` and the
    stack goes through one ``np.linalg.eigvals`` call, so a row's roots are
    those of ``npp.polyroots`` on it, bit for bit.  Rows have nonzero
    leading coefficients.
    """
    k, n = polys.shape[0], polys.shape[1] - 1
    if n == 1:
        return -polys[:, :1] / polys[:, 1:]
    mat = np.zeros((k, n, n), dtype=polys.dtype)
    sub = np.arange(n - 1)
    mat[:, sub + 1, sub] = 1
    mat[:, :, -1] -= polys[:, :-1] / polys[:, -1:]
    return np.sort(np.linalg.eigvals(mat), axis=-1)


def _root_groups(poly: np.ndarray, roots=None) -> list[tuple[complex, int]]:
    """Roots of poly with multiplicities, by the one multiple-root rule.

    A cluster of m roots within CLUSTER_RADIUS is one m-fold root at its
    mean polished on poly^(m-1) if |poly| there is at most MULTIPLE_ROOT_TOL
    times the Horner rounding scale sum |p_k| |center|^k; otherwise that
    mean has landed between distinct roots.  Those roots and singletons come
    back unpolished with multiplicity 1.  ``roots`` are poly's roots when
    already solved (``npp.polyroots`` otherwise, which divides by the last
    nonzero coefficient: a quotient that overflows raises RootFindingError).
    """
    if roots is None:
        lead = np.trim_zeros(poly, "b")
        with np.errstate(all="ignore"):
            monic = lead[:-1] / lead[-1:]
        if not np.isfinite(monic).all():
            raise RootFindingError("non-finite normalized polynomial coefficients", math.inf)
        roots = npp.polyroots(poly)
    groups: list[tuple[complex, int]] = []
    for group in _cluster(roots):
        if len(group) > 1:
            center = _polish(poly, complex(sum(roots[group])) / len(group), len(group) - 1)
            scale = npp.polyval(abs(center), np.abs(poly))
            if abs(npp.polyval(center, poly)) <= MULTIPLE_ROOT_TOL * scale:
                groups.append((center, len(group)))
                continue
        groups.extend((complex(roots[i]), 1) for i in group)
    return groups


def _re_im(pair) -> tuple[float, float]:
    """Sort key of a (point, multiplicity) pair: the point's (re, im)."""
    return pair[0].real, pair[0].imag


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


def _fiber(f: FiniteBlaschkeProduct, w: complex, poly, roots) -> list[tuple[complex, int]]:
    """The fiber of f over w != 0 from the roots of poly = gamma N - w D."""
    cands = _merge_pseudo_hyperbolic([
        (_newton_polish(f, z, target=w) if m == 1 else z, m)
        for z, m in _root_groups(poly, roots)
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
    result.sort(key=_re_im)
    return result


def _lane_fibers(f: _ProductStack, w: np.ndarray, roots: np.ndarray) -> list:
    """_fiber over each target w[k] from its row roots[k], in lanes, under
    row k of the stack f (a stack of one serves every k).

    Per row: the cluster test on every pair of roots, two guarded Newton
    steps on each root, the same-point test on every pair, the residual and
    open-disk checks, and the (re, im) sort.  A row that needs more than that
    (a cluster, a merge, a failed check, an error) is None, for _fiber to
    solve; every other row is what _fiber returns, bit for bit.
    """
    i, j = np.triu_indices(roots.shape[1], 1)
    gap = roots[:, i] - roots[:, j]
    ok = ~(np.hypot(gap.real, gap.imag) <= CLUSTER_RADIUS).any(axis=1)
    zr, zi = roots.real, roots.imag
    wr, wi = w.real[:, None], w.imag[:, None]
    # rows that fail a check may overflow or divide by zero on the way
    with np.errstate(all="ignore"):
        # _newton_polish: a lane stops at f' = 0 or a step longer than 0.1
        live = np.ones(roots.shape, dtype=bool)
        for _ in range(2):
            vr, vi, dr, di = lanes.jet(f, zr, zi)
            sr, si = lanes.quot(vr - wr, vi - wi, dr, di)
            live &= ((dr != 0) | (di != 0)) & ~(np.hypot(sr, si) > 0.1)
            zr, zi = np.where(live, zr - sr, zr), np.where(live, zi - si, zi)
        # same_point(z_j, z_i) for i < j, as _merge_pseudo_hyperbolic asks it
        ok &= ~lanes.same_point(zr[:, j], zi[:, j], zr[:, i], zi[:, i]).any(axis=1)
        vr, vi = lanes.value(f, zr, zi)
        ok &= (np.hypot(vr - wr, vi - wi) <= PREIMAGE_RESIDUAL_TOL).all(axis=1)
        ok &= (np.hypot(zr, zi) < 1.0 - DISK_MARGIN).all(axis=1)
    order = np.lexsort((zi, zr), axis=-1)
    points = np.empty(roots.shape, dtype=complex)
    points.real = np.take_along_axis(zr, order, -1)
    points.imag = np.take_along_axis(zi, order, -1)
    return [[(z, 1) for z in row] if good else None
            for row, good in zip(points.tolist(), ok.tolist())]


def _row_product(f: _ProductStack, r: int) -> FiniteBlaschkeProduct:
    """Row r of the stack as a FiniteBlaschkeProduct, for the scalar paths;
    a stack's rows are validated tables."""
    return FiniteBlaschkeProduct._from_table(complex(f.gamma[r, 0]),
                                             zip(f.zeros[r].tolist(), f.mults))


def _product_fibers(f: _ProductStack, rows: np.ndarray, targets: list[complex]) -> list:
    """_fiber over each validated targets[i] under product rows[i] of the
    stack f, the roots of all nonzero targets from one ``_stacked_roots``
    call.  Over 0 the fiber is the exact (merged) zero list.  A failed fiber
    is its RootFindingError.  A batch of at least _LANE_MIN_TARGETS nonzero
    targets, on products of at most _SCALAR_MAX_ZEROS zeros, goes through
    _lane_fibers first."""
    num, den = f.coefficients
    nonzero = [k for k, w in enumerate(targets) if w != 0]
    held = rows[nonzero]
    w = np.array([targets[k] for k in nonzero], dtype=complex)
    # |gamma N_d| = 1 > |w D_d| for |w| < 1, so no leading coefficient is 0
    polys = f.gamma[held] * num[held] - w[:, None] * den[held]
    roots = _stacked_roots(polys) if len(w) else None
    lane = len(w) >= _LANE_MIN_TARGETS and len(f.mults) <= _SCALAR_MAX_ZEROS
    certified = _lane_fibers(f.take(held), w, roots) if lane else None
    fibers: list = []
    k = 0
    for target, r in zip(targets, rows.tolist()):
        if target == 0:
            fibers.append(sorted(zip(f.zeros[r].tolist(), f.mults), key=_re_im))
            continue
        fiber = None if certified is None else certified[k]
        if fiber is None:
            try:
                fiber = _fiber(_row_product(f, r), target, polys[k], roots[k])
            except RootFindingError as exc:
                fiber = exc
        fibers.append(fiber)
        k += 1
    return fibers


def _stacked_fibers(stacks, which, rows, targets) -> list:
    """_product_fibers over each validated targets[i] under product rows[i]
    of stacks[which[i]], one call per stack."""
    fibers: list = [None] * len(targets)
    for s, stack in enumerate(stacks):
        sel = np.flatnonzero(which == s).tolist()
        if sel:
            solved = _product_fibers(stack, rows[sel], [targets[i] for i in sel])
            for i, fiber in zip(sel, solved):
                fibers[i] = fiber
    return fibers


def _composite_fibers(stages, owners, targets) -> list:
    """The fiber over each validated targets[i] under composite owners[i],
    back-solved stage by stage over the whole layer.

    stages[s] = (stacks, which, row) holds stage s of every composite,
    stages[0] first: composite c's is product row[c] of stacks[which[c]].
    Entry i is a fiber sorted by (re, im), or the first RootFindingError of
    the last stage whose fiber failed, as preimages raises it.
    """
    layers: list = [[(w, 1)] for w in targets]
    for stacks, which, row in reversed(stages):
        live = [i for i, layer in enumerate(layers) if isinstance(layer, list)]
        held = np.array([owners[i] for i in live for _ in layers[i]], dtype=np.intp)
        points = [z for i in live for z, _ in layers[i]]
        solved = iter(_stacked_fibers(stacks, which[held], row[held], points))
        for i in live:
            layer = layers[i]
            fibers = [next(solved) for _ in layer]
            failed = [fiber for fiber in fibers if isinstance(fiber, RootFindingError)]
            if failed:
                layers[i] = failed[0]
                continue
            cands = [(z, m * mult) for (_, mult), fiber in zip(layer, fibers) for z, m in fiber]
            # one point's fiber is merged already (over 0, its zero list as given)
            layers[i] = cands if len(layer) == 1 else _merge_pseudo_hyperbolic(cands)
    for layer in layers:
        if isinstance(layer, list):
            layer.sort(key=_re_im)
    return layers


def _fibers(f, targets) -> list:
    """preimages(f, w) for every target w, solved together: one stacked
    root solve per product stage for the whole batch.

    Entry i is the fiber over targets[i], or the RootFindingError that
    preimages(f, targets[i]) raises, so a caller can name the failed target.
    Composites are solved stage by stage over the whole layer.
    """
    stages = _stages(f)
    targets = [ensure_disk_point(w) for w in targets]
    one = np.zeros(len(targets), dtype=np.intp)
    if isinstance(f, FiniteBlaschkeProduct):
        return _product_fibers(f._stack, one, targets)
    return _composite_fibers([([s._stack], one[:1], one[:1]) for s in stages], one, targets)


def preimages(f, w: complex) -> list[tuple[complex, int]]:
    """All solutions of f(z) = w in the disk, with multiplicities.

    Composites are back-solved stage by stage, which keeps the polynomial
    degrees equal to the stage degrees.  Returns pairs sorted by (re, im);
    the fiber of a product over 0 is its merged zero list in that order.
    """
    return _checked(_fibers(f, [w])[0])


def _checked(fiber) -> list[tuple[complex, int]]:
    """A fiber from _fibers, or its RootFindingError raised."""
    if isinstance(fiber, RootFindingError):
        raise fiber
    return fiber


def critical_points(f) -> list[tuple[complex, int]]:
    """Zeros of f' inside the disk; a degree-d product has exactly d - 1."""
    stages = _stages(f)
    if len(stages) > 1:
        # f = s_k o ... o s_1; critical points are those of s_1 plus the
        # preimages under the partial compositions of later-stage ones
        result = critical_points(stages[0])
        for k in range(1, len(stages)):
            crits = critical_points(stages[k])
            fibers = _fibers(CompositeMap(stages[:k]), [c for c, _ in crits])
            for (_, m), fiber in zip(crits, fibers):
                result.extend((z, m * mz) for z, mz in _checked(fiber))
        result = _merge_pseudo_hyperbolic(result)
        result.sort(key=_re_im)
        return result

    f = stages[0]
    if f.degree == 1:
        return []
    num, den = (rows[0] for rows in f._stack.coefficients)
    dnum = npp.polysub(npp.polymul(npp.polyder(num), den), npp.polymul(num, npp.polyder(den)))
    # an m-fold zero is an exact (m-1)-fold critical point: divide it out, and
    # its mirror (1 - conj(a) z)^(m-1), whose roots may round into the disk
    multiple = [(a, m - 1) for a, m in f.zeros if m > 1]
    for a, m in multiple:
        dnum = npp.polydiv(dnum, npp.polypow([-a, 1.0], m))[0]
        dnum = npp.polydiv(dnum, npp.polypow([1.0, -a.conjugate()], m))[0]
    inside = _merge_pseudo_hyperbolic(multiple + [
        (_newton_polish(f, z, order=1), m)
        for z, m in _root_groups(dnum)
        if abs(z) < 1.0 - DISK_MARGIN
    ])
    total = sum(m for _, m in inside)
    if total != f.degree - 1:
        raise RootFindingError(
            f"found {total} critical points for a degree-{f.degree} product", math.nan
        )
    inside.sort(key=_re_im)
    return inside


# ----------------------------------------------------------------------------
# right-half-plane conjugate
# ----------------------------------------------------------------------------


class HalfPlaneConjugate:
    """The map transported to the right half-plane with its boundary fixed
    point omega sent to infinity.

    Stage k is conjugated by the Cayley map from omega_{k-1} to omega_k =
    s_k(omega_{k-1}), starting from omega_0 = omega, so every stage fixes
    infinity and is kept in Clark form (diskdyn.transport):
    F_k(w) = a_k w + i b_k + sum_j c_kj / (w - i t_kj).  The chain ends at
    f(omega), so apply is C(conj(f(omega)) f(omega C^{-1}(w))), with both
    points normalized; no coefficient is snapped.  omega must be a boundary
    fixed point of f (callers pass the Denjoy-Wolff point), where that is
    C(conj(omega) f(omega C^{-1}(w))) to rounding; for any other omega the
    output frame is f(omega), not omega.  Like evaluate, it returns a
    Python complex.  walk(orbit, count) is the stages' kernel from
    diskdyn.transport, built from the Clark sums of _clark_chain (at a
    classified map's attracting point, the classification's own), and
    apply is one walk step.
    """

    def __init__(self, f, omega: complex = 1.0):
        self.omega = ensure_unimodular(omega)
        shapes, args = [], []
        for stage, sums in zip(_stages(f), _clark_chain(f, self.omega)):
            shape, stage_args = _stage_arguments(*_clark_stage(stage.zeros, sums))
            shapes.append(shape)
            args += stage_args
        self.walk = _kernel(tuple(shapes))(*args)

    def to_halfplane(self, z_disk: complex) -> complex:
        """The half-plane point C(conj(omega) z) of a disk point z."""
        return cayley_to_rhp(self.omega.conjugate() * z_disk)

    def apply(self, w: complex) -> complex:
        orbit = [w]
        if (exc := self.walk(orbit, 1)) is not None:
            raise exc
        return orbit[1]


# the memo of _clark_chain: per (never mutated) map object still alive, its
# chains by boundary point, so classification, the conjugates and
# angular_derivative at one point share one pass.  Keyed by the object, so
# a new map, even an equal one, pays its own pass; the chains hold no
# stage, which would keep a product key alive
_CLARK_CHAINS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _clark_chain(f, omega: complex) -> list:
    """transport._clark_sums of each stage of f, stage k conjugated from
    omega_{k-1} to omega_k = s_k(omega_{k-1}), omega_0 = omega, as
    HalfPlaneConjugate carries f; computed once per map object and point."""
    stages = _stages(f)  # refuses anything else before the weak-keyed lookup
    chains = _CLARK_CHAINS.setdefault(f, {})
    point = ensure_unimodular(omega)
    if point not in chains:
        chain, alpha = [], point
        for stage in stages:
            chain.append(_clark_sums(stage.zeros, alpha))
            alpha = _eval_fbp(stage, alpha)
        chains[point] = chain
    return chains[point]


def _boundary_constants(chain) -> tuple[Fraction, Fraction]:
    """Exact (a, b) of f at the boundary point omega from its chain =
    _clark_chain(f, omega): a = |f'(omega)| and F(w) = w / a + i b + O(1/w)
    for f carried to the half-plane as HalfPlaneConjugate carries it.
    Stage k is F_k(w) = w / sum m x + i b_k + ..., b_k = -sum m x y /
    (sum m x)^2 (transport._clark_sums), so a is the product of the Poisson
    sums and b <- (b - sum m x y / sum m x) / sum m x."""
    a, b = Fraction(1), Fraction(0)
    for sx, sxy, _, _ in chain:
        a, b = a * sx, (b - sxy / sx) / sx
    return a, b


def angular_derivative(f, omega: complex) -> float:
    """The angular derivative |f'(omega)| at a boundary point omega, correctly
    rounded from the Poisson sums of _boundary_constants."""
    return float(_boundary_constants(_clark_chain(f, omega))[0])
