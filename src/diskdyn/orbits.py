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

from .dynamics import _boundary_class
from .geometry import PointIndex, ensure_disk_point, same_point
from .selfmap import RootFindingError, degree, evaluate, preimages, critical_points

DEFAULT_NODE_CAP = 20000


@dataclass(frozen=True)
class GrandOrbitNode:
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
    Stops with the truncated flag set if node_cap would be exceeded.
    """
    z0 = ensure_disk_point(z0)
    d = degree(f)
    if d is None or d < 2:
        raise ValueError("grand orbits need a Blaschke-type map of degree >= 2")
    _boundary_class(f, "grand orbit")

    index = PointIndex()
    nodes: list[GrandOrbitNode] = []
    sums: list[float] = []

    z = z0
    total = 0.0
    for m in range(forward_n + 1):
        if m > 0:
            z = evaluate(f, z)
        try:
            z = ensure_disk_point(z)
        except ValueError as exc:
            raise ValueError(
                f"forward orbit left the representable disk at index {m}; "
                f"reduce forward_n"
            ) from exc
        if index.find(z) is not None:
            continue
        nodes.append(GrandOrbitNode(z, 1, m, 0))
        index.add(z)
        total += 1.0 - abs(z)
    sums.append(total)

    truncated = False
    generation = list(nodes)
    for depth in range(1, backward_depth + 1):
        batch: list[GrandOrbitNode] = []
        for parent in generation:
            try:
                fiber = preimages(f, parent.point)
            except RootFindingError as exc:
                raise RootFindingError(
                    f"fiber solve failed at generation {depth} "
                    f"(parent {parent.point!r})", exc.residual
                ) from exc
            for child, local_mult in fiber:
                if index.find(child) is not None:
                    continue
                batch.append(
                    GrandOrbitNode(
                        point=child,
                        multiplicity=local_mult * parent.multiplicity,
                        forward_index=parent.forward_index,
                        backward_depth=depth,
                    )
                )
                index.add(child)
        batch.sort(key=lambda n: (n.point.real, n.point.imag))
        if len(nodes) + len(batch) > node_cap:
            truncated = True
            break
        nodes.extend(batch)
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
    """Nodes that are the same point as a critical point of f.

    An empty list certifies that all enumerated zeros are simple at this
    truncation; hits are handled upstream by multiplicities, not exclusion.
    """
    crits = critical_points(f)
    hits = []
    for node in truncation.nodes:
        for c, _ in crits:
            if same_point(node.point, c):
                hits.append((node, c))
    return hits


def conjugation_closure_check(truncation: GrandOrbitTruncation) -> bool:
    """True iff the node multiset is closed under complex conjugation: each
    node's conjugate is the same point as a node of equal multiplicity."""
    index = PointIndex()
    for node in truncation.nodes:
        index.add(node.point)
    for node in truncation.nodes:
        j = index.find(node.point.conjugate())
        if j is None or truncation.nodes[j].multiplicity != node.multiplicity:
            return False
    return True


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
