"""Grand-orbit enumeration with multiplicity bookkeeping.

The grand orbit of a base point collects every point whose forward iterates
eventually land on the forward orbit of the base.  Enumeration is breadth
first by backward generation: generation 0 is the forward orbit, generation
k the new preimages of generation k - 1.  Each node carries the product of
local root multiplicities along its backward path, which is the local degree
of the iterate that maps it onto the forward orbit.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from . import lanes
from .dynamics import _boundary_class
from .geometry import SAME_POINT_TOL, ensure_disk_point
from .selfmap import RootFindingError, _fibers, _stages, critical_points, evaluate

DEFAULT_NODE_CAP = 20000


class GrandOrbitNode(NamedTuple):
    """One grand-orbit point: a tuple, as it is built thousands of times
    per grand orbit."""

    point: complex
    multiplicity: int
    forward_index: int
    backward_depth: int


@dataclass(frozen=True)
class GrandOrbitTruncation:
    base_point: complex
    forward_n: int
    backward_depth: int
    nodes: tuple[GrandOrbitNode, ...]
    blaschke_partial_sums: tuple[float, ...]
    truncated: bool

    def points(self) -> list[complex]:
        return [n.point for n in self.nodes]

    def prefix(self, backward_depth: int) -> GrandOrbitTruncation:
        """The truncation grand_orbit returns for this map and base point
        at a backward_depth up to this one's: its first generations.

        Generation k depends only on generations < k, so the nodes, partial
        sums and node-cap verdict are those of a fresh enumeration.  Nodes
        come generation by generation, so the prefix's are a leading slice.
        """
        if not 0 <= backward_depth <= self.backward_depth:
            raise ValueError(
                f"prefix depth must lie in [0, {self.backward_depth}], got {backward_depth}"
            )
        # a truncated run stopped before generation len(sums)
        truncated = self.truncated and len(self.blaschke_partial_sums) <= backward_depth
        count = bisect_right(self.nodes, backward_depth, key=attrgetter("backward_depth"))
        return GrandOrbitTruncation(
            base_point=self.base_point,
            forward_n=self.forward_n,
            backward_depth=backward_depth,
            nodes=self.nodes[:count],
            blaschke_partial_sums=self.blaschke_partial_sums[: backward_depth + 1],
            truncated=truncated,
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
    Each generation's fibers are solved together (selfmap._fibers) and its
    children deduplicated together (_new_points).  Stops with the truncated
    flag set if node_cap would be exceeded; a cap below the forward orbit's
    node count is an error.
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
    joins = _new_points(np.empty(0), np.empty(0), pts.real, pts.imag).tolist()
    nodes = [GrandOrbitNode(z, 1, m, 0) for m, z in enumerate(forward) if joins[m]]
    if len(nodes) > node_cap:
        raise ValueError(
            f"node_cap {node_cap} is below the {len(nodes)} forward-orbit nodes"
        )
    nr, ni = pts.real[joins], pts.imag[joins]
    total = 0.0
    for node in nodes:
        total += 1.0 - abs(node.point)
    sums = [total]

    truncated = False
    generation = nodes
    for depth in range(1, backward_depth + 1):
        fibers = _fibers(f, [parent.point for parent in generation])
        children: list[tuple[complex, int, int]] = []
        for parent, fiber in zip(generation, fibers):
            if isinstance(fiber, RootFindingError):
                raise RootFindingError(
                    f"fiber solve failed at generation {depth} "
                    f"(parent {parent.point!r})", fiber.residual
                ) from fiber
            for child, local_mult in fiber:
                children.append((child, local_mult * parent.multiplicity, parent.forward_index))
        pts = np.array([c[0] for c in children], dtype=complex)
        joins = _new_points(nr, ni, pts.real, pts.imag)
        cr, ci = pts.real[joins], pts.imag[joins]
        kept = np.flatnonzero(joins)[np.lexsort((ci, cr))]
        batch = [GrandOrbitNode(*children[k], depth) for k in kept.tolist()]
        if len(nodes) + len(batch) > node_cap:
            truncated = True
            break
        nodes.extend(batch)
        nr, ni = np.concatenate((nr, cr)), np.concatenate((ni, ci))
        total += sum(n.multiplicity * (1.0 - abs(n.point)) for n in batch)
        sums.append(total)
        generation = batch

    return GrandOrbitTruncation(
        base_point=z0,
        forward_n=forward_n,
        backward_depth=backward_depth,
        nodes=tuple(nodes),
        blaschke_partial_sums=tuple(sums),
        truncated=truncated,
    )


def blaschke_sum(truncation: GrandOrbitTruncation) -> float:
    """Multiplicity-weighted sum of 1 - |point| over the truncation."""
    return sum(n.multiplicity * (1.0 - abs(n.point)) for n in truncation.nodes)


def critical_orbit_intersection(f, truncation: GrandOrbitTruncation):
    """Nodes that are the same point as a critical point of f, as pairs
    (node, critical point) in node order, then critical-point order.

    An empty list certifies that all enumerated zeros are simple at this
    truncation; hits are handled upstream by multiplicities, not exclusion.
    """
    crits = [c for c, _ in critical_points(f)]
    z, c = np.array(truncation.points(), dtype=complex), np.array(crits, dtype=complex)
    q, p = _same_pairs(z.real, z.imag, c.real, c.imag)
    return [(truncation.nodes[i], crits[j]) for i, j in sorted(zip(q.tolist(), p.tolist()))]


def conjugation_closure_check(truncation: GrandOrbitTruncation) -> bool:
    """True iff the node multiset is closed under complex conjugation: each
    node's conjugate is the same point as a node of equal multiplicity, the
    first such node in node order deciding."""
    z = np.array(truncation.points(), dtype=complex)
    q, p = _same_pairs(z.real, -z.imag, z.real, z.imag)
    first = np.full(len(z), len(z))
    np.minimum.at(first, q, p)
    mults = np.array([n.multiplicity for n in truncation.nodes])
    return bool((first < len(z)).all() and (mults[first] == mults).all())


def truncation_rows(truncation: GrandOrbitTruncation) -> list[tuple]:
    """Rows (re, im, multiplicity, forward_index, backward_depth, one_minus_abs)."""
    return [
        (
            n.point.real,
            n.point.imag,
            n.multiplicity,
            n.forward_index,
            n.backward_depth,
            1.0 - abs(n.point),
        )
        for n in truncation.nodes
    ]
