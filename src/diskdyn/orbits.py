"""Grand-orbit enumeration with multiplicity bookkeeping.

The grand orbit of a base point collects every point whose forward iterates
eventually land on the forward orbit of the base.  Enumeration is breadth
first by backward generation: generation 0 is the forward orbit, generation
k the new preimages of generation k - 1.  Each node carries the product of
local root multiplicities along its backward path, which is the local degree
of the iterate that maps it onto the forward orbit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import lanes
from .dynamics import _boundary_class
from .geometry import SAME_POINT_TOL, ensure_disk_point
from .selfmap import RootFindingError, _fiber_table, _stages, critical_points, evaluate

DEFAULT_NODE_CAP = 20000


class GrandOrbitNode(NamedTuple):
    """One grand-orbit point, a row of a GrandOrbitTruncation's columns."""

    point: complex
    multiplicity: int
    forward_index: int
    backward_depth: int


@dataclass(frozen=True, eq=False)
class GrandOrbitTruncation:
    """A truncated grand orbit as four read-only columns, one row per node in
    enumeration order: points (complex128); multiplicities, the local degree
    of the iterate onto the forward orbit; forward_indices, the forward-orbit
    point it reaches; backward_depths, its generation, never decreasing (the
    last three intp).  blaschke_partial_sums[k] sums through generation k."""

    base_point: complex
    forward_n: int
    backward_depth: int
    points: np.ndarray
    multiplicities: np.ndarray
    forward_indices: np.ndarray
    backward_depths: np.ndarray
    blaschke_partial_sums: tuple[float, ...]
    truncated: bool

    @cached_property
    def nodes(self) -> tuple[GrandOrbitNode, ...]:
        """The rows as GrandOrbitNode tuples, built on first use."""
        return tuple(map(GrandOrbitNode._make, zip(
            self.points.tolist(), self.multiplicities.tolist(),
            self.forward_indices.tolist(), self.backward_depths.tolist())))

    def prefix(self, backward_depth: int) -> GrandOrbitTruncation:
        """The truncation grand_orbit returns for this map and base point
        at a backward_depth up to this one's: its first generations.

        Generation k depends only on generations < k, so the nodes, partial
        sums and node-cap verdict are those of a fresh enumeration.  Nodes
        come generation by generation, so the prefix's columns are views.
        """
        if not 0 <= backward_depth <= self.backward_depth:
            raise ValueError(
                f"prefix depth must lie in [0, {self.backward_depth}], got {backward_depth}"
            )
        # a truncated run stopped before generation len(sums)
        truncated = self.truncated and len(self.blaschke_partial_sums) <= backward_depth
        count = np.searchsorted(self.backward_depths, backward_depth, "right")
        columns = (self.points, self.multiplicities, self.forward_indices, self.backward_depths)
        return GrandOrbitTruncation(
            self.base_point, self.forward_n, backward_depth,
            *(column[:count] for column in columns),
            self.blaschke_partial_sums[: backward_depth + 1], truncated,
        )


def _same_pairs(zr, zi, pr, pi, stop=None,
                radius=SAME_POINT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (q, p) of every pair of disk points z[q] = zr + i zi and
    points[p] = pr + i pi within pseudo-hyperbolic radius (same_point at the
    default), with p < stop[q] if stop is given: the package's one radius
    search, also eigen's admissibility test.  Each pair within 4 radius in
    both parts, found by a search in real-part order, is tested in lanes in
    that orientation, lanes.pseudo_hyperbolic(z, point) <= radius; any pair
    within the radius is within Euclidean 2 radius, as |1 - conj(w) z| < 2.
    Pairs come grouped by q, in no set order within a group."""
    window = 4 * radius
    order = np.argsort(pr)
    ordered = pr[order]
    lo = np.searchsorted(ordered, zr - window, "left")
    count = np.searchsorted(ordered, zr + window, "right") - lo
    # z[q] pairs with the sorted positions lo[q] .. lo[q] + count[q] - 1
    q = np.repeat(np.arange(len(zr)), count)
    first = np.repeat(lo - np.cumsum(count) + count, count)
    p = order[first + np.arange(len(q))]
    near = np.abs(pi[p] - zi[q]) <= window
    if stop is not None:
        near &= p < stop[q]
    q, p = q[near], p[near]
    hit = lanes.pseudo_hyperbolic(zr[q], zi[q], pr[p], pi[p]) <= radius
    return q[hit], p[hit]


def _new_points(nr, ni, cr, ci) -> np.ndarray:
    """Mask of the children (cr, ci), in enumeration order, that join the
    nodes (nr, ni): a child joins unless same_point(child, p) for a node p
    or for a child that joined before it, as a point-by-point lookup decides.
    A child whose only hits (_same_pairs) are earlier children is settled in
    order, since a child that does not join drops no later one."""
    n = len(nr)
    child, other = _same_pairs(cr, ci, np.concatenate((nr, cr)), np.concatenate((ni, ci)),
                               n + np.arange(len(cr)))
    other = other - n
    joins = np.ones(len(cr), dtype=bool)
    joins[child[other < 0]] = False
    later = other >= 0
    for c, o in sorted(zip(child[later].tolist(), other[later].tolist())):
        if joins[o]:
            joins[c] = False
    return joins


def grand_orbit(
    f,
    z0: complex,
    forward_n: int = 12,
    backward_depth: int = 6,
    node_cap: int = DEFAULT_NODE_CAP,
) -> GrandOrbitTruncation:
    """Enumerate the truncated grand orbit of z0.

    Forward orbit points get generation 0; generation k holds the preimages
    of generation k - 1 that are not already enumerated, sorted by (re, im).
    A generation is three arrays (points, multiplicities, forward indices).
    Its fibers are solved together as one table (selfmap._fiber_table),
    whose owner column indexes the children's multiplicities and forward
    indices out of the parents' arrays, and its children are deduplicated
    together (_new_points).  The columns concatenate the generations' arrays.
    A failed fiber raises RootFindingError naming the generation and its
    first failing parent in node order.  Stops with the truncated flag set if
    node_cap would be exceeded; a cap below the forward orbit's node count is
    an error.
    """
    for name, value in (("forward_n", forward_n), ("backward_depth", backward_depth),
                        ("node_cap", node_cap)):
        if value < 0:
            raise ValueError(f"{name} must be nonnegative, got {value}")
    z0 = ensure_disk_point(z0)
    _stages(f)
    if f.degree < 2:
        raise ValueError("grand orbits need a Blaschke-type map of degree >= 2")
    _boundary_class(f, "grand orbit")

    forward = []
    z = z0
    for m in range(forward_n + 1):
        if m > 0:
            z = evaluate(f, z)
        try:
            forward.append(ensure_disk_point(z))
        except ValueError as exc:
            raise ValueError(
                f"forward orbit left the representable disk at index {m}; "
                f"reduce forward_n"
            ) from exc
    pts = np.array(forward)
    joins = _new_points(np.empty(0), np.empty(0), pts.real, pts.imag)
    index = np.flatnonzero(joins)
    points, mults = pts[index], np.ones(len(index), dtype=np.intp)
    if len(index) > node_cap:
        raise ValueError(
            f"node_cap {node_cap} is below the {len(index)} forward-orbit nodes"
        )
    # a generation is three arrays: points, multiplicities, forward indices
    generations = [(points, mults, index)]
    nr, ni = points.real, points.imag
    total = 0.0
    for p in points.tolist():
        total += 1.0 - abs(p)
    sums = [total]

    truncated = False
    for depth in range(1, backward_depth + 1):
        fibers = _fiber_table(f, points)
        if fibers.errors:
            k = min(fibers.errors)
            raise RootFindingError(
                f"fiber solve failed at generation {depth} "
                f"(parent {complex(points[k])!r})", fibers.errors[k].residual
            ) from fibers.errors[k]
        children = fibers.points
        joins = _new_points(nr, ni, children.real, children.imag)
        cr, ci = children.real[joins], children.imag[joins]
        kept = np.flatnonzero(joins)[np.lexsort((ci, cr))]
        if len(nr) + len(kept) > node_cap:
            truncated = True
            break
        parent = fibers.owner[kept]
        points, mults, index = children[kept], fibers.mults[kept] * mults[parent], index[parent]
        generations.append((points, mults, index))
        nr, ni = np.concatenate((nr, cr)), np.concatenate((ni, ci))
        # Python's sum of the generation's terms (abs is hypot); from 3.12
        # on, sum compensates its rounding, which np.cumsum would not repeat
        total += sum((mults * (1.0 - np.hypot(points.real, points.imag))).tolist())
        sums.append(total)

    columns = [np.concatenate(column) for column in zip(*generations)]
    columns.append(np.repeat(np.arange(len(generations), dtype=np.intp),
                             [len(p) for p, _, _ in generations]))
    for column in columns:
        column.flags.writeable = False
    return GrandOrbitTruncation(z0, forward_n, backward_depth, *columns, tuple(sums), truncated)


def blaschke_sum(truncation: GrandOrbitTruncation) -> float:
    """Multiplicity-weighted sum of 1 - |point|: the last partial sum."""
    return truncation.blaschke_partial_sums[-1]


def critical_orbit_intersection(f, truncation: GrandOrbitTruncation):
    """Nodes that are the same point as a critical point of f, as pairs
    (node, critical point) in node order, then critical-point order.

    An empty list certifies that all enumerated zeros are simple at this
    truncation; hits are handled upstream by multiplicities, not exclusion.
    """
    crits = [c for c, _ in critical_points(f)]
    z, c = truncation.points, np.array(crits, dtype=complex)
    q, p = _same_pairs(z.real, z.imag, c.real, c.imag)
    return [(truncation.nodes[i], crits[j]) for i, j in sorted(zip(q.tolist(), p.tolist()))]


def conjugation_closure_check(truncation: GrandOrbitTruncation) -> bool:
    """True iff the node multiset is closed under complex conjugation: each
    node's conjugate is the same point as a node of equal multiplicity, the
    first such node in node order deciding."""
    z, mults = truncation.points, truncation.multiplicities
    q, p = _same_pairs(z.real, -z.imag, z.real, z.imag)
    first = np.full(len(z), len(z))
    np.minimum.at(first, q, p)
    return bool((first < len(z)).all() and (mults[first] == mults).all())


def truncation_rows(truncation: GrandOrbitTruncation) -> list[tuple]:
    """Rows (re, im, multiplicity, forward_index, backward_depth, one_minus_abs)."""
    re, im = truncation.points.real, truncation.points.imag
    # np.hypot rounds as Python's abs of a complex; np.abs of an array does not
    return list(zip(re.tolist(), im.tolist(), truncation.multiplicities.tolist(),
                    truncation.forward_indices.tolist(), truncation.backward_depths.tolist(),
                    (1.0 - np.hypot(re, im)).tolist()))
