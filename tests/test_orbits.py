import re

import numpy as np
import pytest

from diskdyn import orbits as ob
from diskdyn import presets
from diskdyn import selfmap as sm
from diskdyn.geometry import julia_quotient, pseudo_hyperbolic


@pytest.fixture(scope="module")
def example_truncation():
    return ob.grand_orbit(presets.example61(0.5), 0.0, forward_n=12, backward_depth=6)


def nearest(truncation, target):
    return min(truncation.nodes, key=lambda n: abs(n.point - target))


class TestGrandOrbit:
    def test_shallow_truncation_contains_the_three_points(self):
        tr = ob.grand_orbit(presets.example61(0.5), 0.0, forward_n=1, backward_depth=1)
        pts = tr.points()
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
        for p in example_truncation.points():
            if abs(p.imag) < 1e-12:
                assert not (1e-12 < p.real < 0.25 - 1e-12)

    def test_backward_nodes_escape_horodisks(self, example_truncation):
        a = 2 / 3
        for node in example_truncation.nodes:
            if node.forward_index == 0 and node.backward_depth >= 1:
                assert julia_quotient(node.point, 1.0) > a ** (-node.backward_depth)

    def test_nodes_pairwise_separated(self, example_truncation):
        pts = example_truncation.points()[:80]
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

    def test_prefix_depth_out_of_range(self, example_truncation):
        for k in (-1, example_truncation.backward_depth + 1):
            with pytest.raises(ValueError, match="prefix depth"):
                example_truncation.prefix(k)


class TestBlaschkeSum:
    def test_empty_truncation(self):
        tr = ob.GrandOrbitTruncation(0.0, 0, 0, (), (0.0,), False)
        assert ob.blaschke_sum(tr) == 0.0

    def test_single_node_at_origin(self):
        node = ob.GrandOrbitNode(0.0, 1, 0, 0)
        tr = ob.GrandOrbitTruncation(0.0, 0, 0, (node,), (1.0,), False)
        assert ob.blaschke_sum(tr) == 1.0

    def test_partial_sums_non_decreasing(self, example_truncation):
        sums = example_truncation.blaschke_partial_sums
        assert all(b >= a for a, b in zip(sums, sums[1:]))
        assert ob.blaschke_sum(example_truncation) == pytest.approx(sums[-1], rel=1e-12)

    def test_increments_shrink_after_generation_three(self):
        # behavior frozen from a depth-10 enumeration of the same map
        tr = ob.grand_orbit(presets.example61(0.5), 0.0, forward_n=8,
                            backward_depth=6)
        inc = np.diff(tr.blaschke_partial_sums)
        tail = inc[3:]
        assert np.all(np.diff(tail) < 0)


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
        broken = ob.GrandOrbitTruncation(
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
        tr = ob.GrandOrbitTruncation(z, 0, 1, nodes, (0.0,), False)
        assert not ob.conjugation_closure_check(tr)

    def test_real_only_truncation_vacuously_closed(self):
        node = ob.GrandOrbitNode(0.25, 1, 0, 0)
        tr = ob.GrandOrbitTruncation(0.25, 0, 0, (node,), (0.75,), False)
        assert ob.conjugation_closure_check(tr)


class TestExportRows:
    def test_row_shape_and_content(self, example_truncation):
        rows = ob.truncation_rows(example_truncation)
        assert len(rows) == len(example_truncation.nodes)
        re, im, mult, fwd, depth, oma = rows[0]
        assert (re, im) == (0.0, 0.0)
        assert mult == 1 and fwd == 0 and depth == 0
        assert oma == 1.0
