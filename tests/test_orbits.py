import cmath
import math
import re

import numpy as np
import pytest

from diskdyn import orbits as ob
from diskdyn import presets
from diskdyn import selfmap as sm
from diskdyn.geometry import ensure_disk_point, julia_quotient, pseudo_hyperbolic, same_point


# the scalar definition of a same-point search, the reference of the lane
# pair finder (orbits._same_pairs) in grand-orbit dedup, the conjugation
# check and the critical intersection
class PointIndex:
    """Spatial hash answering :func:`same_point` queries against added points.

    Cell size 1e-6 Euclidean: any pair within pseudo-hyperbolic 1e-8 is
    within Euclidean 2e-8, hence in the same or an adjacent cell.
    """

    CELL = 1e-6

    def __init__(self):
        self._cells: dict[tuple[int, int], list[tuple[int, complex]]] = {}
        self._count = 0

    def _key(self, z: complex) -> tuple[int, int]:
        return (math.floor(z.real / self.CELL), math.floor(z.imag / self.CELL))

    def find(self, z: complex) -> int | None:
        """Insertion index of the first added point that is the same point
        as z, or None."""
        kx, ky = self._key(z)
        first = None
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for i, p in self._cells.get((kx + dx, ky + dy), ()):
                    if same_point(z, p):
                        # a cell lists its points in insertion order
                        if first is None or i < first:
                            first = i
                        break
        return first

    def add(self, z: complex) -> None:
        self._cells.setdefault(self._key(z), []).append((self._count, z))
        self._count += 1


def test_point_index_finds_across_a_cell_edge():
    edge = 7 * PointIndex.CELL
    index = PointIndex()
    index.add(complex(edge - 5e-10, -edge - 5e-10))
    assert index.find(complex(edge + 5e-10, -edge + 5e-10)) == 0
    assert index.find(complex(edge + 1e-7, -edge)) is None


def test_point_index_returns_first_inserted_match():
    edge = 3 * PointIndex.CELL
    index = PointIndex()
    index.add(complex(edge + 4e-9, 0.1))
    index.add(complex(edge - 4e-9, 0.1))
    assert index.find(complex(edge - 4e-9, 0.1)) == 0
    assert index.find(complex(edge + 2e-7, 0.1)) is None


@pytest.fixture(scope="module")
def example_truncation():
    return ob.grand_orbit(presets.example61(0.5), 0.0, forward_n=12, backward_depth=6)


def truncation_from_nodes(base_point, forward_n, backward_depth, nodes, sums, truncated):
    """A GrandOrbitTruncation whose columns hold the given nodes."""
    points, mults, forward, depths = zip(*nodes) if nodes else ((),) * 4
    return ob.GrandOrbitTruncation(
        base_point, forward_n, backward_depth, np.array(points, dtype=complex),
        *(np.array(column, dtype=np.intp) for column in (mults, forward, depths)),
        sums, truncated)


def nearest(truncation, target):
    return min(truncation.nodes, key=lambda n: abs(n.point - target))


class TestGrandOrbit:
    def test_forward_orbit_leaving_the_disk_is_refused(self):
        # example61(0.9)'s orbit of 0 reaches 1 - 1e-15 at index 16
        with pytest.raises(ValueError, match="left the representable disk at index 16"):
            ob.grand_orbit(presets.example61(0.9), 0.0, forward_n=40, backward_depth=1)

    def test_shallow_truncation_contains_the_three_points(self):
        tr = ob.grand_orbit(presets.example61(0.5), 0.0, forward_n=1, backward_depth=1)
        pts = tr.points
        for target in (0.0, 0.25, -0.8):
            assert min(abs(p - target) for p in pts) < 1e-12

    def test_second_fiber_matches_closed_form(self, example_truncation):
        # independent recurrence: zeta_m = (zeta_0 - z_m)/(1 - zeta_0 z_m)
        f = presets.example61(0.5)
        zeta0 = -0.8
        zm = 0.0
        for _ in range(12):
            zeta = (zeta0 - zm) / (1 - zeta0 * zm)
            node = nearest(example_truncation, zeta)
            assert abs(node.point - zeta) < 1e-10
            assert zeta < 0
            zm = sm.evaluate(f, zm).real

    def test_multiplicity_two_through_the_critical_point(self, example_truncation):
        crit = nearest(example_truncation, -0.5)
        assert crit.multiplicity == 2
        # children of the critical point inherit the factor of two
        for z, m in sm.preimages(presets.example61(0.5), -0.5):
            node = nearest(example_truncation, z)
            assert abs(node.point - z) < 1e-10
            assert node.multiplicity == 2

    def test_forward_consistency(self, example_truncation):
        f = presets.example61(0.5)
        orbit = [0.0]
        for _ in range(12):
            orbit.append(sm.evaluate(f, orbit[-1]))
        for node in example_truncation.nodes:
            reached = sm.iterate(f, node.backward_depth, node.point)
            assert abs(reached - orbit[node.forward_index]) < 1e-9

    def test_multiplicity_conservation_per_fiber(self, example_truncation):
        f = presets.example61(0.5)
        for node in example_truncation.nodes[:40]:
            fiber = sm.preimages(f, node.point)
            assert sum(m for _, m in fiber) == f.degree

    def test_no_node_in_the_first_gap(self, example_truncation):
        for p in example_truncation.points:
            if abs(p.imag) < 1e-12:
                assert not (1e-12 < p.real < 0.25 - 1e-12)

    def test_backward_nodes_escape_horodisks(self, example_truncation):
        a = 2 / 3
        for node in example_truncation.nodes:
            if node.forward_index == 0 and node.backward_depth >= 1:
                assert julia_quotient(node.point, 1.0) > a ** (-node.backward_depth)

    def test_nodes_pairwise_separated(self, example_truncation):
        pts = example_truncation.points[:80]
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                assert pseudo_hyperbolic(pts[i], pts[j]) > 1e-8

    def test_node_cap_sets_flag(self):
        tr = ob.grand_orbit(presets.example61(0.5), 0.0, forward_n=6,
                            backward_depth=8, node_cap=50)
        assert tr.truncated
        assert len(tr.nodes) <= 50

    def test_rejects_degree_one(self):
        with pytest.raises(ValueError):
            ob.grand_orbit(presets.translation(), 0.0, 2, 2)

    def test_rejects_elliptic(self):
        with pytest.raises(ValueError):
            ob.grand_orbit(presets.power_map(2), 0.3, 2, 2)

    def test_deterministic(self):
        a = ob.grand_orbit(presets.example61(0.5), 0.0, 6, 4)
        b = ob.grand_orbit(presets.example61(0.5), 0.0, 6, 4)
        assert a.nodes == b.nodes

    def test_fiber_failure_names_generation_and_parent(self, monkeypatch):
        # no residual passes a negative tolerance; the first parent, 0, has
        # the exact fiber over 0, so the second forward point fails
        monkeypatch.setattr(sm, "PREIMAGE_RESIDUAL_TOL", -1.0)
        f = presets.example61(0.5)
        parent = sm.evaluate(f, 0.0)
        with pytest.raises(sm.RootFindingError,
                           match=re.escape(f"generation 1 (parent {parent!r})")):
            ob.grand_orbit(f, 0.0, forward_n=3, backward_depth=2)

    def test_fiber_failure_in_a_lane_generation_names_the_first_parent(self, monkeypatch):
        # generation 4 solves the 52 nodes of generation 3 in lanes; two of
        # them are left to _fiber, which refuses both: the error names the
        # first of the two in node order
        f = presets.example61(0.5)
        parents = [n.point for n in ob.grand_orbit(f, 0.0, 12, 3).nodes if n.backward_depth == 3]
        assert len(parents) >= sm._LANE_MIN_TARGETS
        refused = [parents[40], parents[9]]
        lane_fibers, fiber = sm._lane_fibers, sm._fiber

        def leave_refused(g, w, roots):
            points, certified = lane_fibers(g, w, roots)
            return points, certified & ~np.isin(w, refused)

        def refuse(g, w, poly, roots):
            if w in refused:
                raise sm.RootFindingError(f"refused {w!r}", 0.5)
            return fiber(g, w, poly, roots)

        monkeypatch.setattr(sm, "_lane_fibers", leave_refused)
        monkeypatch.setattr(sm, "_fiber", refuse)
        with pytest.raises(sm.RootFindingError,
                           match=re.escape(f"generation 4 (parent {parents[9]!r})")) as got:
            ob.grand_orbit(f, 0.0, forward_n=12, backward_depth=8)
        assert got.value.residual == 0.5
        assert str(got.value.__cause__) == f"refused {parents[9]!r} (residual 5.000e-01)"


def assert_same_truncation(a, b):
    assert a.base_point == b.base_point
    assert a.forward_n == b.forward_n
    assert a.backward_depth == b.backward_depth
    assert a.nodes == b.nodes
    assert a.blaschke_partial_sums == b.blaschke_partial_sums
    assert a.truncated == b.truncated


class TestPrefix:
    def test_prefix_is_the_shallower_grand_orbit(self):
        f = presets.example61(0.6)
        deep = ob.grand_orbit(f, 0.0, forward_n=12, backward_depth=6)
        for k in range(7):
            assert_same_truncation(
                deep.prefix(k), ob.grand_orbit(f, 0.0, forward_n=12, backward_depth=k)
            )

    def test_prefix_under_node_cap(self):
        # the cap stops the depth-8 run part way: shallower prefixes are
        # complete, deeper ones carry the flag
        f = presets.example61(0.5)
        deep = ob.grand_orbit(f, 0.0, forward_n=6, backward_depth=8, node_cap=50)
        assert deep.truncated
        flags = []
        for k in range(9):
            fresh = ob.grand_orbit(f, 0.0, forward_n=6, backward_depth=k, node_cap=50)
            assert_same_truncation(deep.prefix(k), fresh)
            flags.append(fresh.truncated)
        assert not flags[0] and flags[-1]

    def test_prefix_nodes_are_the_node_filter(self):
        # the prefix slices the nodes at its depth's count, which equals
        # keeping the nodes of generations up to that depth
        f = presets.example61(0.6)
        for deep in (ob.grand_orbit(f, 0.0, forward_n=12, backward_depth=8),
                     ob.grand_orbit(f, 0.0, forward_n=6, backward_depth=8, node_cap=50)):
            for k in range(9):
                want = tuple(n for n in deep.nodes if n.backward_depth <= k)
                assert deep.prefix(k).nodes == want

    def test_prefix_depth_out_of_range(self, example_truncation):
        for k in (-1, example_truncation.backward_depth + 1):
            with pytest.raises(ValueError, match="prefix depth"):
                example_truncation.prefix(k)


def reference_grand_orbit(f, z0, forward_n, backward_depth, node_cap=ob.DEFAULT_NODE_CAP):
    """grand_orbit with every child looked up in a PointIndex of the nodes
    enumerated before it, one child at a time."""
    index = PointIndex()
    nodes, sums = [], []
    z = z0 = ensure_disk_point(z0)
    total = 0.0
    for m in range(forward_n + 1):
        if m > 0:
            z = ensure_disk_point(sm.evaluate(f, z))
        if index.find(z) is not None:
            continue
        nodes.append(ob.GrandOrbitNode(z, 1, m, 0))
        index.add(z)
        total += 1.0 - abs(z)
    sums.append(total)
    truncated = False
    generation = list(nodes)
    for depth in range(1, backward_depth + 1):
        batch = []
        fibers = sm._fiber_table(f, [p.point for p in generation]).fibers()
        for parent, fiber in zip(generation, fibers):
            for child, local_mult in fiber:
                if index.find(child) is not None:
                    continue
                batch.append(ob.GrandOrbitNode(child, local_mult * parent.multiplicity,
                                               parent.forward_index, depth))
                index.add(child)
        batch.sort(key=lambda n: (n.point.real, n.point.imag))
        if len(nodes) + len(batch) > node_cap:
            truncated = True
            break
        nodes.extend(batch)
        total += sum(n.multiplicity * (1.0 - abs(n.point)) for n in batch)
        sums.append(total)
        generation = batch
    return truncation_from_nodes(z0, forward_n, backward_depth, tuple(nodes),
                                 tuple(sums), truncated)


def exact_nodes(truncation):
    return [(n.point.real.hex(), n.point.imag.hex(), n.multiplicity, n.forward_index,
             n.backward_depth) for n in truncation.nodes]


def assert_exactly_reference(f, z0, forward_n, backward_depth, **kw):
    got = ob.grand_orbit(f, z0, forward_n, backward_depth, **kw)
    want = reference_grand_orbit(f, z0, forward_n, backward_depth, **kw)
    assert exact_nodes(got) == exact_nodes(want)
    assert ([x.hex() for x in got.blaschke_partial_sums]
            == [x.hex() for x in want.blaschke_partial_sums])
    assert got.truncated == want.truncated
    assert_same_truncation(got, want)
    return got


def new_points(nodes, children) -> list[bool]:
    nodes, children = np.array(nodes, dtype=complex), np.array(children, dtype=complex)
    return ob._new_points(nodes.real, nodes.imag, children.real, children.imag).tolist()


def reference_new_points(nodes, children) -> list[bool]:
    index = PointIndex()
    for z in nodes:
        index.add(z)
    joins = []
    for z in children:
        joins.append(index.find(z) is None)
        if joins[-1]:
            index.add(z)
    return joins


class TestGenerationDedup:
    """Each generation's children are deduplicated together, as a PointIndex
    lookup per child decides it, bit for bit."""

    @pytest.mark.parametrize("alpha", [0.5, 0.5123, 0.6, 0.7])
    def test_example61_depth_8(self, alpha):
        tr = assert_exactly_reference(presets.example61(alpha), 0.0, 12, 8)
        assert len(tr.nodes) == 3328

    def test_example62(self):
        assert_exactly_reference(presets.example62(), 0.0, 12, 6)

    def test_two_stage_composite(self):
        f = sm.compose(presets.example61(0.6), presets.example61(0.55))
        assert_exactly_reference(f, 0.1j, 6, 4)

    def test_node_cap_and_a_split_zero(self):
        assert_exactly_reference(presets.example61(0.5), 0.0, 6, 8, node_cap=50)
        split = sm.FiniteBlaschkeProduct(1, [(-0.5, 1), (-0.5, 1)])
        assert_exactly_reference(split, 0.3, 12, 5)

    def test_lane_generation_with_fiber_rows(self):
        # the grand orbit of 0 meets the critical point -0.5 in generation 1,
        # a 13-target batch solved fiber by fiber; from f^3(-0.5) the
        # critical value f(-0.5) is a node of generation 2, so generation 3
        # solves 28 parents in lanes, the critical value's (a double point)
        # by _fiber
        f = presets.example61(0.5)
        z0 = sm.iterate(f, 3, -0.5)
        batches, lane_fibers = [], sm._lane_fibers

        def record(g, w, roots):
            points, certified = lane_fibers(g, w, roots)
            batches.append(certified)
            return points, certified

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sm, "_lane_fibers", record)
            got = ob.grand_orbit(f, z0, 12, 8)
        mixed = [c for c in batches if len(c) >= sm._LANE_MIN_TARGETS and 0 < c.sum() < len(c)]
        assert [len(c) - c.sum() for c in mixed] == [1]
        want = reference_grand_orbit(f, z0, 12, 8)
        assert exact_nodes(got) == exact_nodes(want)
        assert_same_truncation(got, want)
        assert ([x.hex() for x in got.blaschke_partial_sums]
                == [x.hex() for x in want.blaschke_partial_sums])
        assert (-0.5 + 0j, 2, 3) in [(n.point, n.multiplicity, n.backward_depth)
                                     for n in got.nodes]

    def check(self, nodes, children, expected):
        assert reference_new_points(nodes, children) == expected
        assert new_points(nodes, children) == expected

    def test_chain_keeps_the_child_after_a_dropped_one(self):
        # c1 ~ c2 ~ c3 but c1 and c3 differ: c2 joins no node, so c3 is kept
        c1 = 0.3 + 0.1j
        c2, c3 = c1 + 7e-9, c1 + 1.4e-8
        assert pseudo_hyperbolic(c1, c3) > 1e-8
        self.check([], [c1, c2, c3], [True, False, True])
        self.check([c1], [c2, c3], [False, True])
        self.check([-0.5], [c3, c2, c1], [True, False, True])

    def test_same_point_across_a_cell_edge(self):
        edge = 7 * PointIndex.CELL
        left, right = complex(edge - 3e-9, -edge - 3e-9), complex(edge + 3e-9, -edge + 3e-9)
        self.check([left], [right, 0.2], [False, True])
        self.check([], [0.2, left, right], [True, True, False])

    def test_euclidean_neighbours_near_the_circle_differ(self):
        z = 0.999999 * np.exp(0.7j)
        w = z + 1.5e-8 * np.exp(2.0j)
        assert pseudo_hyperbolic(z, w) > 1e-8
        self.check([z], [w], [True])
        self.check([], [w, z, z], [True, True, False])

    def test_zero_denominator_means_the_points_differ(self):
        # conj(1j) 1j = 1: same_point refuses the pair, so both are kept
        self.check([1j], [1j, -1j], [True, True])
        self.check([], [1j, 1j], [True, True])
        # (1 - 2^-53)(1 + 2^-52) rounds to 1 while the points differ
        self.check([1 - 2 ** -53], [1 + 2 ** -52], [True])

    @pytest.mark.parametrize("earlier, child", [
        (-2.5954576770943826e-09 + 1.6395875882476095e-09j,
         6.87456591077307e-09 + 4.8518536490268335e-09j),
        (1.4997344995572858e-09 - 2.016344080753044e-09j,
         1.1318924142268214e-08 - 1.2332671145120262e-10j),
    ])
    def test_child_is_tested_against_the_earlier_point(self, earlier, child):
        # at the tolerance, swapping same_point's arguments flips the verdict
        dropped = same_point(child, earlier)
        assert dropped != same_point(earlier, child)
        self.check([earlier], [child], [not dropped])
        self.check([], [earlier, child], [True, not dropped])

    def test_random_clusters(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            seeds = 0.9 * np.sqrt(rng.random(6)) * np.exp(2j * np.pi * rng.random(6))
            points = [complex(s + 1e-8 * rng.standard_normal() * np.exp(2j * np.pi * rng.random()))
                      for s in rng.choice(seeds, 40)]
            nodes, children = points[:10], points[10:]
            assert new_points(nodes, children) == reference_new_points(nodes, children)


class TestArguments:
    @pytest.mark.parametrize("name", ["forward_n", "backward_depth", "node_cap"])
    def test_negative_argument_is_named(self, name):
        kw = {"forward_n": 4, "backward_depth": 3, name: -3}
        with pytest.raises(ValueError, match=f"{name} must be nonnegative, got -3"):
            ob.grand_orbit(presets.example61(0.5), 0.0, **kw)

    def test_cap_below_the_forward_orbit_raises(self):
        f = presets.example61(0.5)
        with pytest.raises(ValueError, match="node_cap 5 is below the 13 forward-orbit nodes"):
            ob.grand_orbit(f, 0.0, forward_n=12, backward_depth=2, node_cap=5)
        tr = ob.grand_orbit(f, 0.0, forward_n=12, backward_depth=2, node_cap=13)
        assert len(tr.nodes) == 13 and tr.truncated


class TestBlaschkeSum:
    def test_empty_truncation(self):
        tr = truncation_from_nodes(0.0, 0, 0, (), (0.0,), False)
        assert ob.blaschke_sum(tr) == 0.0

    def test_single_node_at_origin(self):
        node = ob.GrandOrbitNode(0.0, 1, 0, 0)
        tr = truncation_from_nodes(0.0, 0, 0, (node,), (1.0,), False)
        assert ob.blaschke_sum(tr) == 1.0

    def test_partial_sums_non_decreasing(self, example_truncation):
        sums = example_truncation.blaschke_partial_sums
        assert all(b >= a for a, b in zip(sums, sums[1:]))
        assert ob.blaschke_sum(example_truncation) == pytest.approx(sums[-1], rel=1e-12)

    def test_the_sum_is_the_last_partial_sum(self):
        # a second sum over the nodes, in node order, rounds differently: on
        # this truncation (Python 3.11) it is 6.0e-14 off math.fsum of the
        # same terms, and the generation-by-generation sum 1.8e-15
        tr = ob.grand_orbit(presets.example61(0.5), 0.0, forward_n=12, backward_depth=8)
        assert ob.blaschke_sum(tr) == tr.blaschke_partial_sums[-1]
        exact = math.fsum(n.multiplicity * (1.0 - abs(n.point)) for n in tr.nodes)
        assert abs(ob.blaschke_sum(tr) - exact) < 1e-14

    def test_increments_shrink_after_generation_three(self):
        # behavior frozen from a depth-10 enumeration of the same map
        tr = ob.grand_orbit(presets.example61(0.5), 0.0, forward_n=8,
                            backward_depth=6)
        inc = np.diff(tr.blaschke_partial_sums)
        tail = inc[3:]
        assert np.all(np.diff(tail) < 0)


def reference_closure(truncation) -> bool:
    """conjugation_closure_check as a PointIndex of the nodes decides it."""
    index = PointIndex()
    for node in truncation.nodes:
        index.add(node.point)
    for node in truncation.nodes:
        j = index.find(node.point.conjugate())
        if j is None or truncation.nodes[j].multiplicity != node.multiplicity:
            return False
    return True


def reference_intersection(f, truncation) -> list:
    """critical_orbit_intersection as a loop over nodes, then critical points."""
    crits = sm.critical_points(f)
    return [(node, c) for node in truncation.nodes for c, _ in crits if same_point(node.point, c)]


def truncation_of(points, mults=None):
    mults = mults or [1] * len(points)
    nodes = tuple(ob.GrandOrbitNode(z, m, 0, k) for k, (z, m) in enumerate(zip(points, mults)))
    return truncation_from_nodes(0.0, 0, len(nodes), nodes, (0.0,), False)


def at_distance(c: complex, rho: float, angle: float) -> complex:
    """The point at pseudo-hyperbolic distance rho from c in direction angle."""
    t = rho * np.exp(1j * angle)
    return complex((c + t) / (1 + c.conjugate() * t))


def exact_hits(hits) -> list:
    return [(node, c.real.hex(), c.imag.hex()) for node, c in hits]


class TestSamePointChecksMatchReferences:
    """The conjugation check and the critical intersection, found in lanes
    (orbits._same_pairs), equal the PointIndex and double-loop references."""

    def check(self, f, truncation):
        closed = ob.conjugation_closure_check(truncation)
        assert closed is reference_closure(truncation)
        if f is not None:
            got = ob.critical_orbit_intersection(f, truncation)
            assert exact_hits(got) == exact_hits(reference_intersection(f, truncation))
        return closed

    # at alpha 0.6 both read "not closed", as the grand-orbit command reports
    @pytest.mark.parametrize("alpha, closed", [(0.5, True), (0.6, False)])
    def test_grand_orbits(self, alpha, closed):
        f = presets.example61(alpha)
        tr = ob.grand_orbit(f, 0.0, 12, 8)
        assert len(tr.nodes) == 3328
        assert self.check(f, tr) is closed
        # one node's conjugate gone, or its multiplicity changed
        k = next(i for i, n in enumerate(tr.nodes) if n.point.imag > 1e-3)
        nodes = list(tr.nodes)
        assert not self.check(f, truncation_of([n.point for n in nodes[:k] + nodes[k + 1:]],
                                               [n.multiplicity for n in nodes[:k] + nodes[k + 1:]]))
        mults = [n.multiplicity for n in nodes]
        mults[k] += 1
        assert not self.check(f, truncation_of([n.point for n in nodes], mults))

    @pytest.mark.parametrize("rho, hit", [(0.99e-8, True), (1.01e-8, False)])
    def test_pairs_at_the_tolerance(self, rho, hit):
        f = sm.compose(presets.example61(0.6), presets.example61(0.55))
        crits = [c for c, _ in sm.critical_points(f)]
        assert len(crits) == 3
        for angle in np.random.default_rng(3).uniform(0, 2 * np.pi, 8):
            for c in (0.3 + 0.4j, -0.7 + 0.1j, -0.01 + 0.02j):
                w = at_distance(c.conjugate(), rho, angle)
                assert (pseudo_hyperbolic(c.conjugate(), w) <= 1e-8) is hit
                assert self.check(f, truncation_of([c, w])) is hit
                assert self.check(f, truncation_of([w, 0.1, c])) is hit
            for c in crits:
                tr = truncation_of([0.5j, at_distance(c, rho, angle), -0.5j])
                self.check(f, tr)
                assert bool(ob.critical_orbit_intersection(f, tr)) is hit

    def test_pairs_straddling_a_cell_edge(self):
        f = sm.FiniteBlaschkeProduct(1.0, [(0.0, 1), (complex(7e-6, 3e-6), 2), (0.5, 1)])
        edge = complex(7 * PointIndex.CELL, 3 * PointIndex.CELL)
        points = [edge + complex(dx, dy) for dx in (-4e-9, 4e-9) for dy in (-4e-9, 4e-9)]
        points += [p.conjugate() for p in points]
        assert self.check(f, truncation_of(points))
        assert self.check(f, truncation_of(points[:-1]))
        assert ob.critical_orbit_intersection(f, truncation_of(points))

    def test_the_first_inserted_same_point_decides(self):
        z = 0.3 + 0.2j
        near = at_distance(z, 5e-9, 1.0)
        # conj(near) finds conj(z) first: its multiplicity 1 decides
        for mults, closed in (([1, 1, 1], True), ([1, 2, 1], False), ([2, 1, 2], False)):
            for order in ([0, 1, 2], [2, 0, 1], [1, 2, 0]):
                points = [[z, near, z.conjugate()][k] for k in order]
                tr = truncation_of(points, [mults[k] for k in order])
                assert self.check(None, tr) is reference_closure(tr)
            tr = truncation_of([z, near, z.conjugate()], mults)
            assert self.check(None, tr) is closed
        # several same points of one conjugate, with different multiplicities
        tr = truncation_of([z.conjugate(), at_distance(z.conjugate(), 4e-9, 2.0), z,
                            at_distance(z, 6e-9, -1.0)], [3, 1, 3, 3])
        assert not self.check(None, tr)
        tr = truncation_of([z.conjugate(), at_distance(z.conjugate(), 4e-9, 2.0), z], [3, 1, 3])
        assert not self.check(None, tr)

    def test_random_clusters(self):
        rng = np.random.default_rng(11)
        f = sm.FiniteBlaschkeProduct(1.0, [(0.2, 2), (-0.4 + 0.3j, 1), (-0.4 - 0.3j, 1)])
        crits = [c for c, _ in sm.critical_points(f)]
        verdicts = []
        for _ in range(200):
            seeds = list(0.9 * np.sqrt(rng.random(4)) * np.exp(2j * np.pi * rng.random(4)))
            seeds += crits[:2]
            seed_mults = rng.integers(1, 3, len(seeds))
            points, mults = [], []
            for k in rng.integers(0, len(seeds), 12):
                # a conjugate pair, now and then missing a point or split in
                # multiplicity; clusters of points up to 1.2e-8 apart
                m = [int(seed_mults[k])] * 2
                m[1] += rng.random() < 0.02
                for w, mw in zip((seeds[k], seeds[k].conjugate()), m):
                    if rng.random() < 0.99:
                        points.append(at_distance(w, 6e-9 * rng.random(), 2 * np.pi * rng.random()))
                        mults.append(mw)
            verdicts.append(self.check(f, truncation_of(points, mults)))
        assert 20 < sum(verdicts) < 180

    def test_float_points(self):
        f = sm.FiniteBlaschkeProduct(1.0, [(0.25, 2)])
        assert sm.critical_points(f) == [(0.25, 1)]
        tr = truncation_of([0.25, -0.5, complex(-0.5, 0.0)])
        assert self.check(f, tr)
        assert [n.point for n, _ in ob.critical_orbit_intersection(f, tr)] == [0.25]

    def test_degree_one_map_has_no_critical_points(self, example_truncation):
        assert sm.critical_points(presets.translation()) == []
        assert self.check(presets.translation(), example_truncation)
        assert self.check(presets.translation(), truncation_of([]))
        assert ob.critical_orbit_intersection(presets.translation(), example_truncation) == []


class TestCriticalIntersection:
    def test_origin_base_hits_the_critical_point(self, example_truncation):
        hits = ob.critical_orbit_intersection(presets.example61(0.5), example_truncation)
        assert len(hits) == 1
        node, crit = hits[0]
        assert abs(node.point - (-0.5)) < 1e-12
        assert abs(crit - (-0.5)) < 1e-12

    def test_generic_base_misses(self):
        tr = ob.grand_orbit(presets.example61(0.5), 0.3j, forward_n=8,
                            backward_depth=6)
        assert ob.critical_orbit_intersection(presets.example61(0.5), tr) == []

    def test_degree_one_map_never_hits(self, example_truncation):
        assert ob.critical_orbit_intersection(presets.translation(), example_truncation) == []


class TestConjugationClosure:
    def test_real_map_truncations_are_closed(self, example_truncation):
        assert ob.conjugation_closure_check(example_truncation)

    def test_deleting_a_non_real_node_breaks_closure(self, example_truncation):
        nodes = list(example_truncation.nodes)
        idx = next(i for i, n in enumerate(nodes) if n.point.imag > 1e-6)
        del nodes[idx]
        broken = truncation_from_nodes(
            example_truncation.base_point,
            example_truncation.forward_n,
            example_truncation.backward_depth,
            tuple(nodes),
            example_truncation.blaschke_partial_sums,
            False,
        )
        assert not ob.conjugation_closure_check(broken)

    def test_conjugate_pair_with_different_multiplicities_is_not_closed(self):
        z = 0.3 + 0.2j
        nodes = (ob.GrandOrbitNode(z, 1, 0, 0),
                 ob.GrandOrbitNode(z.conjugate(), 2, 0, 1))
        tr = truncation_from_nodes(z, 0, 1, nodes, (0.0,), False)
        assert not ob.conjugation_closure_check(tr)

    def test_real_only_truncation_vacuously_closed(self):
        node = ob.GrandOrbitNode(0.25, 1, 0, 0)
        tr = truncation_from_nodes(0.25, 0, 0, (node,), (0.75,), False)
        assert ob.conjugation_closure_check(tr)


GAMMA, ZERO = cmath.exp(-3j), -cmath.exp(1j) / 3.0
ROTATED_STAGE = {"gamma": [GAMMA.real, GAMMA.imag], "zeros": [[ZERO.real, ZERO.imag, 2]]}


def exact_row(row) -> tuple:
    return tuple((type(x), x.hex() if isinstance(x, float) else x) for x in row)


class TestExportRows:
    def test_row_shape_and_content(self, example_truncation):
        rows = ob.truncation_rows(example_truncation)
        assert len(rows) == len(example_truncation.nodes)
        re, im, mult, fwd, depth, oma = rows[0]
        assert (re, im) == (0.0, 0.0)
        assert mult == 1 and fwd == 0 and depth == 0
        assert oma == 1.0

    # the grand orbits whose grand-orbit command digests CI prints: example61
    # at depth 8, two rotated example62 stages and a cubic stage before a
    # quadratic one at depth 3
    @pytest.mark.parametrize("description, depth", [
        ({"preset": "example61", "alpha": 0.5}, 8),
        ({"preset": "example61", "alpha": 0.6}, 8),
        ({"preset": "example61", "alpha": 0.7}, 8),
        ({"stages": [ROTATED_STAGE, ROTATED_STAGE]}, 3),
        ({"stages": [{"gamma": [1.0, 0.0], "zeros": [[-0.5, 0.0, 3]]},
                     {"gamma": [1.0, 0.0], "zeros": [[-1 / 3, 0.0, 2]]}]}, 3),
    ], ids=["example61-0.5", "example61-0.6", "example61-0.7", "composite", "mixed"])
    def test_rows_are_the_node_formula_bit_for_bit(self, description, depth):
        # the rows are read off the columns, one_minus_abs as 1 - hypot:
        # np.abs of a complex array rounds some of them otherwise
        tr = ob.grand_orbit(presets.map_from_dict(description), 0.0, 12, depth)
        want = [(p.real, p.imag, m, k, d, 1.0 - abs(p)) for p, m, k, d in tr.nodes]
        assert list(map(exact_row, ob.truncation_rows(tr))) == list(map(exact_row, want))


class TestColumns:
    COLUMNS = ("points", "multiplicities", "forward_indices", "backward_depths")

    def test_columns_are_read_only_and_prefixes_share_them(self):
        deep = ob.grand_orbit(presets.example61(0.6), 0.0, 12, 8)
        shallow = deep.prefix(5)
        for name in self.COLUMNS:
            for tr in (deep, shallow):
                column = getattr(tr, name)
                assert column.dtype == (np.complex128 if name == "points" else np.intp)
                with pytest.raises(ValueError, match="read-only"):
                    column[0] = column[-1]
            assert np.shares_memory(getattr(shallow, name), getattr(deep, name))

    def test_the_column_readers_build_no_nodes(self):
        tr = ob.grand_orbit(presets.example61(0.5), 0.3j, 8, 6)
        ob.conjugation_closure_check(tr)
        ob.truncation_rows(tr.prefix(3))
        assert ob.critical_orbit_intersection(presets.example61(0.5), tr) == []
        assert "nodes" not in vars(tr)
        assert tr.nodes is tr.nodes
