import cmath
import gc
import math
import warnings
import weakref

import numpy as np
import pytest
from numpy.polynomial import polynomial as npp

from diskdyn import properties
from diskdyn import dynamics as dyn
from diskdyn import eigen
from diskdyn import geometry as g
from diskdyn import lanes
from diskdyn import orbits
from diskdyn import presets
from diskdyn import selfmap as sm
from diskdyn import stacks as ps


def random_blaschke(rng, max_degree=4):
    d = int(rng.integers(1, max_degree + 1))
    zeros = [
        (0.85 * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random()), 1)
        for _ in range(d)
    ]
    return sm.FiniteBlaschkeProduct(cmath.exp(2j * math.pi * rng.random()), zeros)


def random_disk_point(rng, radius=0.9):
    return radius * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())


class TestConstruction:
    def test_validates_gamma(self):
        with pytest.raises(ValueError):
            sm.FiniteBlaschkeProduct(1.5, ((0.0, 1),))

    def test_validates_zeros(self):
        with pytest.raises(ValueError):
            sm.FiniteBlaschkeProduct(1.0, ((1.2, 1),))
        with pytest.raises(ValueError):
            sm.FiniteBlaschkeProduct(1.0, ((0.3, 0),))
        with pytest.raises(ValueError):
            sm.FiniteBlaschkeProduct(1.0, ())

    def test_degree(self):
        f = sm.FiniteBlaschkeProduct(1.0, ((0.3, 2), (-0.1j, 1)))
        assert f.degree == 3

    def test_inner_factor_normalization(self):
        # (z + alpha)/(1 + alpha z) is exactly the zero factor at -alpha
        alpha = 0.37
        b = sm.FiniteBlaschkeProduct(1.0, ((-alpha, 1),))
        for z in (0.0, 0.5, -0.2 + 0.6j, 0.9j):
            expected = (z + alpha) / (1 + alpha * z)
            assert sm.evaluate(b, z) == pytest.approx(expected, abs=1e-16)
        assert sm.evaluate(b, 0) == pytest.approx(alpha)


class TestCanonicalZeros:
    def test_split_double_zero_is_the_merged_map(self):
        split = sm.FiniteBlaschkeProduct(1, [(-0.5, 1), (-0.5, 1)])
        ref = presets.example61(0.5)
        assert split.zeros == ref.zeros
        assert sm.preimages(split, 0) == sm.preimages(ref, 0)
        for z in (0.0, 0.3 - 0.2j, 1j):
            assert sm.evaluate(split, z) == sm.evaluate(ref, z)

    def test_split_double_zero_grand_orbit(self):
        from diskdyn import orbits as ob

        split = sm.FiniteBlaschkeProduct(1, [(-0.5, 1), (-0.5, 1)])
        a = ob.grand_orbit(split, 0, 4, 3)
        b = ob.grand_orbit(presets.example61(0.5), 0, 4, 3)
        assert ob.blaschke_sum(a) == ob.blaschke_sum(b)

    def test_merge_keeps_first_occurrence_order(self):
        f = sm.FiniteBlaschkeProduct(1, [(0.3, 1), (-0.2j, 1), (0.3, 2)])
        assert f.zeros == ((0.3 + 0j, 3), (-0.2j, 1))
        assert f.degree == 4

    def test_fiber_over_zero_is_sorted(self):
        f = sm.FiniteBlaschkeProduct(1, [(0.3, 1), (-0.2j, 1)])
        assert sm.preimages(f, 0) == [(-0.2j, 1), (0.3 + 0j, 1)]


class TestEvaluate:
    def test_example_family_at_origin(self):
        for alpha in (0.4, 0.5, 0.6):
            f = presets.example61(alpha)
            assert sm.evaluate(f, 0) == pytest.approx(alpha ** 2, abs=1e-16)

    def test_parabolic_member_at_origin(self):
        assert sm.evaluate(presets.example62(), 0) == pytest.approx(1 / 9, abs=1e-16)

    def test_rotation_factor(self):
        gamma = cmath.exp(0.9j)
        f = sm.FiniteBlaschkeProduct(gamma, ((0.0, 1),))
        z = 0.3 - 0.4j
        assert sm.evaluate(f, z) == gamma * z

    def test_boundary_modulus(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            f = random_blaschke(rng)
            for zc in np.exp(2j * np.pi * np.arange(0, 256, 8) / 256):
                assert abs(abs(sm.evaluate(f, zc)) - 1) < 1e-10

    def test_rejects_points_outside_closed_disk(self):
        with pytest.raises(ValueError):
            sm.evaluate(presets.example62(), 1.1)

    @pytest.mark.parametrize("z", [complex(math.nan, 0.0), complex(0.0, math.nan),
                                   complex(math.inf, 0.0)])
    def test_rejects_nan_and_inf_points(self, z):
        with pytest.raises(ValueError, match="is outside the closed disk"):
            sm.evaluate(presets.example62(), z)

    def test_rejects_a_nan_gamma(self):
        with pytest.raises(ValueError, match="is not unimodular"):
            sm.FiniteBlaschkeProduct(complex(math.nan, 0.0), ((0.3, 1),))

    def test_many_zeros_match_factor_product(self):
        # more than 32 zeros takes the numpy path
        rng = np.random.default_rng(17)
        zeros = [(random_disk_point(rng), 1) for _ in range(40)] + [(0.0, 2), (0.25, 3)]
        gamma = cmath.exp(0.7j)
        f = sm.FiniteBlaschkeProduct(gamma, zeros)
        assert len(f.zeros) > 32
        for z in (0.1 + 0.2j, -0.45 + 0.3j, 0.6j, cmath.exp(1.1j)):
            expected = gamma * math.prod(g.mobius_factor(a, z) ** m for a, m in zeros)
            assert abs(sm.evaluate(f, z) - expected) <= 1e-13 * abs(expected)

    def test_one_stage_composite_is_the_bare_product(self):
        f = sm.FiniteBlaschkeProduct(cmath.exp(0.4j), ((0.3 - 0.1j, 1), (-0.5, 2), (0.0, 1)))
        c = sm.CompositeMap((f,))
        for z in (0.0, 0.2 + 0.1j, -0.6j, cmath.exp(2.0j)):
            assert sm.evaluate(c, z) == sm.evaluate(f, z)
            assert sm.jet(c, z) == sm.jet(f, z)
        for w in (0.0, 0.2 + 0.1j, -0.7):
            assert sm.preimages(c, w) == sm.preimages(f, w)

    def test_conjugation_symmetry_for_real_maps(self):
        f = presets.example61(0.5)
        rng = np.random.default_rng(12)
        for _ in range(50):
            z = random_disk_point(rng)
            lhs = sm.evaluate(f, z.conjugate())
            assert lhs == pytest.approx(sm.evaluate(f, z).conjugate(), abs=1e-14)


class TestPolynomialForms:
    """The coefficient forms built by substituting zero factors, against
    evaluate."""

    def test_coefficients_give_the_map(self):
        gamma, c = cmath.exp(0.9j), 0.4 - 0.3j
        f = sm.FiniteBlaschkeProduct(gamma, ((0.0, 1), (c, 3)))
        num, den = (rows[0] for rows in f._stack.coefficients)
        assert len(num) == len(den) == f.degree + 1
        for z in (0.0, 0.3 + 0.2j, -0.7j, 0.85 - 0.1j, cmath.exp(2.0j)):
            value = gamma * npp.polyval(z, num) / npp.polyval(z, den)
            assert abs(value - sm.evaluate(f, z)) <= 1e-15

    def test_fixed_point_poly_is_f_minus_z_times_b(self):
        # B of a composite s2 o s1 is D1^deg(s2) * D2(s1), where D_k is the
        # product of the (1 - conj(c) z)^m of stage k
        r = cmath.exp(1.0j)
        s1 = sm.FiniteBlaschkeProduct(r ** -3, ((-r / 3.0, 2),))
        s2 = sm.FiniteBlaschkeProduct(cmath.exp(0.3j), ((0.0, 1), (0.2 * r, 1)))
        f = sm.compose(s2, s1)
        p = dyn._fixed_point_poly(f)
        assert len(p) == f.degree + 2

        def den(stage, z):
            return math.prod((1 - c.conjugate() * z) ** m for c, m in stage.zeros)

        for z in (0.0, 0.3 + 0.2j, -0.7j, 0.85 - 0.1j, cmath.exp(2.0j)):
            b = den(s1, z) ** s2.degree * den(s2, sm.evaluate(s1, z))
            assert abs(npp.polyval(z, p) / b - (sm.evaluate(f, z) - z)) <= 1e-15


class TestDerivative:
    def test_example_derivative_at_origin(self):
        for alpha in (0.5, 0.6):
            f = presets.example61(alpha)
            expected = 2 * alpha * (1 - alpha ** 2)
            assert sm.derivative(f, 0) == pytest.approx(expected, abs=1e-15)

    def test_identity_derivative(self):
        assert sm.derivative(sm.identity_map(), 0.3 + 0.1j) == 1.0

    def test_derivative_vanishes_at_double_zero(self):
        f = presets.example61(0.5)
        assert sm.derivative(f, -0.5) == 0.0

    def test_jet_matches_difference_quotients(self):
        f = presets.example61(0.45)
        z = 0.21 - 0.34j
        h = 1e-5
        v, d1, d2 = sm.jet(f, z)
        assert v == sm.evaluate(f, z)
        num1 = (sm.evaluate(f, z + h) - sm.evaluate(f, z - h)) / (2 * h)
        num2 = (sm.evaluate(f, z + h) - 2 * v + sm.evaluate(f, z - h)) / h ** 2
        assert d1 == pytest.approx(num1, abs=1e-9)
        assert d2 == pytest.approx(num2, abs=1e-5)

    def test_jet_value_is_evaluate_on_large_products(self):
        # above 32 zeros evaluate takes numpy, and the jet takes its value
        # from there (the factor loop differed by 1.3e-17 at 0.3 + 0.1j on
        # the depth-8 eigenfunction)
        tr = orbits.grand_orbit(presets.example61(0.6), 0.0, forward_n=12, backward_depth=8)
        rng = np.random.default_rng(40)
        seeded = sm.FiniteBlaschkeProduct(cmath.exp(1j * rng.random()), [
            (0.9 * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random()), 1)
            for _ in range(40)])
        for f in (sm.FiniteBlaschkeProduct(1.0, [(n.point, n.multiplicity) for n in tr.nodes]),
                  seeded):
            assert len(f.factors) > sm._SCALAR_MAX_ZEROS
            for z in [0.3 + 0.1j] + [random_disk_point(rng) for _ in range(20)]:
                assert sm.jet(f, z)[0] == sm.evaluate(f, z)
            c = sm.compose(presets.example62(), f)
            assert sm.jet(c, 0.3 + 0.1j)[0] == sm.evaluate(c, 0.3 + 0.1j)

    def test_composite_chain_rule(self):
        f = presets.example61(0.5)
        c = sm.compose(f, f)
        z = 0.1 + 0.2j
        inner = sm.evaluate(f, z)
        expected = sm.derivative(f, inner) * sm.derivative(f, z)
        assert sm.derivative(c, z) == pytest.approx(expected, abs=1e-15)


class TestCompose:
    def test_empty_composite_rejected(self):
        with pytest.raises(ValueError, match="at least one stage"):
            sm.CompositeMap(())

    def test_degree_multiplies(self):
        f = presets.example61(0.5)
        assert sm.compose(f, f).degree == 4

    def test_matches_pointwise(self):
        f = presets.example61(0.5)
        gmap = presets.example62()
        c = sm.compose(f, gmap)
        rng = np.random.default_rng(5)
        for _ in range(25):
            z = random_disk_point(rng)
            assert sm.evaluate(c, z) == pytest.approx(
                sm.evaluate(f, sm.evaluate(gmap, z)), abs=1e-13
            )

    def test_identity_neutral(self):
        f = presets.example61(0.5)
        c = sm.compose(f, sm.identity_map())
        for z in (0.0, 0.3, -0.2 + 0.5j):
            assert sm.evaluate(c, z) == pytest.approx(sm.evaluate(f, z), abs=1e-15)

    def test_powers_compose(self):
        z2 = presets.power_map(2)
        z3 = presets.power_map(3)
        c = sm.compose(z2, z3)
        rng = np.random.default_rng(3)
        for _ in range(20):
            z = random_disk_point(rng)
            assert sm.evaluate(c, z) == pytest.approx(z ** 6, abs=1e-13)


class TestIterate:
    def test_zero_iterations(self):
        z = 0.4 - 0.1j
        assert sm.iterate(presets.example62(), 0, z) == z

    def test_real_orbit_increases(self):
        f = presets.example61(0.5)
        z = 0.0
        prev = -1.0
        for n in range(30):
            z = sm.evaluate(f, z).real
            assert z > prev
            prev = z

    def test_first_step_of_parabolic_member(self):
        assert sm.iterate(presets.example62(), 1, 0) == pytest.approx(1 / 9, abs=1e-16)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            sm.iterate(presets.example62(), -1, 0)


class TestPreimages:
    def test_example_fiber_over_first_orbit_point(self):
        f = presets.example61(0.5)
        fiber = sm.preimages(f, 0.25)
        assert len(fiber) == 2
        pts = sorted(z.real for z, _ in fiber)
        assert pts[0] == pytest.approx(-0.8, abs=1e-12)
        assert pts[1] == pytest.approx(0.0, abs=1e-12)

    def test_square_map_fiber(self):
        fiber = sm.preimages(presets.power_map(2), 0.25)
        assert sorted(z.real for z, _ in fiber) == pytest.approx([-0.5, 0.5], abs=1e-12)

    def test_double_zero_fiber(self):
        fiber = sm.preimages(presets.example61(0.5), 0.0)
        assert fiber == [((-0.5 + 0j), 2)]

    def test_nonzero_critical_value_fiber_carries_multiplicity(self):
        # the fiber over a critical value away from 0 exercises the
        # cluster-and-verify path of the root solver
        f = sm.FiniteBlaschkeProduct(-1.0, ((0.2, 1), (-0.4, 1)))
        (crit, _), = sm.critical_points(f)
        fiber = sm.preimages(f, sm.evaluate(f, crit))
        assert sum(m for _, m in fiber) == 2
        assert any(m == 2 for _, m in fiber)

    @pytest.mark.parametrize("w", [1e-10, 1e-11, 1e-12])
    def test_tiny_target_has_two_simple_preimages(self, w):
        # +-sqrt(w) are 2e-6 to 2e-5 apart, far beyond SAME_POINT_TOL
        r = math.sqrt(w)
        fiber = sm.preimages(presets.power_map(2), w)
        assert [m for _, m in fiber] == [1, 1]
        assert [z.real for z, _ in fiber] == pytest.approx([-r, r], rel=1e-12)

    def test_completeness_random(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            f = random_blaschke(rng)
            w = random_disk_point(rng, 0.8)
            fiber = sm.preimages(f, w)
            assert sum(m for _, m in fiber) == f.degree
            for z, _ in fiber:
                assert abs(sm.evaluate(f, z) - w) < 1e-10

    def test_composite_back_solving(self):
        f = presets.example61(0.5)
        c = sm.compose(f, f)
        w = 0.3 + 0.1j
        fiber = sm.preimages(c, w)
        assert sum(m for _, m in fiber) == 4
        for z, _ in fiber:
            assert abs(sm.evaluate(c, z) - w) < 1e-10

    @pytest.mark.parametrize("call", [
        lambda f: sm.evaluate(f, 0.1),
        lambda f: sm.jet(f, 0.1),
        lambda f: sm.derivative(f, 0.1),
        lambda f: sm.iterate(f, 1, 0.1),
        sm.is_identity,
        lambda f: sm.preimages(f, 0.1),
        sm.critical_points,
        lambda f: sm.angular_derivative(f, 1.0),
        dyn.denjoy_wolff,
        dyn.classify,
        lambda f: dyn.hyperbolic_step(f, 0.0, 10),
        lambda f: dyn.julia_containment_check(f, 1.0, samples=10),
        lambda f: orbits.grand_orbit(f, 0.0, forward_n=2, backward_depth=1),
    ], ids=["evaluate", "jet", "derivative", "iterate", "is_identity", "preimages",
            "critical_points", "angular_derivative", "denjoy_wolff", "classify",
            "hyperbolic_step", "julia_containment_check", "grand_orbit"])
    def test_requires_blaschke_map(self, call):
        # every map is a product or a composite; selfmap._stages refuses
        # anything else, a plain callable too
        with pytest.raises(TypeError, match="^not a Blaschke-type map: "):
            call(lambda z: z / 2)

    @pytest.mark.parametrize("zero", [0.0, 0.3])
    def test_tiny_target_near_a_triple_zero_has_three_simple_preimages(self, zero):
        # the roots lie (1 - |a|^2) |w|^(1/3), 4.2e-5 to 4.6e-5, from the
        # zero a: three points, not one triple root
        f = sm.FiniteBlaschkeProduct(1.0, ((zero, 3),))
        fiber = sm.preimages(f, 1e-13)
        assert [m for _, m in fiber] == [1, 1, 1]
        for z, _ in fiber:
            assert abs(z - zero) == pytest.approx((1 - zero ** 2) * 1e-13 ** (1 / 3), rel=1e-4)
            assert abs(sm.evaluate(f, z) - 1e-13) < 1e-20

    def test_critical_value_at_the_origin_stays_a_double_root(self):
        f = sm.FiniteBlaschkeProduct(1.0, ((0.1, 1), (-0.1, 1)))
        assert sm.preimages(f, sm.evaluate(f, 0.0)) == [(0j, 2)]


def bits(fiber):
    """A fiber with its points as exact bit patterns (-0.0 != 0.0)."""
    return [(z.real.hex(), z.imag.hex(), m) for z, m in fiber]


def test_newton_polish_stops_at_a_critical_point():
    # example61(0.5)' vanishes at -0.5: a step there would divide by zero
    f = presets.example61(0.5)
    assert sm.jet(f, -0.5 + 0j)[1] == 0
    assert sm._newton_polish(f, -0.5 + 0j, target=0.3) == -0.5


class TestFiberRefusals:
    def test_roots_on_the_margin_land_outside_the_disk(self):
        # the roots of z^2 = 1 - 2e-15 lie within DISK_MARGIN of the circle
        with pytest.raises(sm.RootFindingError, match="landed outside the open disk"):
            sm.preimages(presets.power_map(2), 1 - 2e-15)

    def test_a_lost_root_is_a_count_error(self, monkeypatch):
        root_groups = sm._root_groups
        monkeypatch.setattr(sm, "_root_groups", lambda *args: root_groups(*args)[1:])
        f = sm.FiniteBlaschkeProduct(1.0, [(0.3, 1), (-0.2j, 1), (0.5 + 0.1j, 1)])
        with pytest.raises(sm.RootFindingError,
                           match="preimage count 2 does not match degree 3"):
            sm.preimages(f, 0.25)
        with pytest.raises(sm.RootFindingError,
                           match="found 1 critical points for a degree-3 product"):
            sm.critical_points(f)


class TestBatchedFibers:
    """sm._fiber_table solves many targets at once; each entry must be the
    preimages of its target bit for bit."""

    def assert_batch_matches(self, f, targets):
        batch = sm._fiber_table(f, targets).fibers()
        assert len(batch) == len(targets)
        for w, fiber in zip(targets, batch):
            assert bits(fiber) == bits(sm.preimages(f, w))

    def test_degree_two_product(self):
        f = presets.example61(0.6)
        rng = np.random.default_rng(7)
        targets = [random_disk_point(rng, 0.9) for _ in range(50)]
        targets += [sm.iterate(f, n, 0.0) for n in range(12)]
        self.assert_batch_matches(f, targets)

    def test_degree_four_product_with_double_zero(self):
        f = sm.FiniteBlaschkeProduct(1j, ((0.2 + 0.1j, 2), (-0.5j, 1), (0.7, 1)))
        rng = np.random.default_rng(8)
        self.assert_batch_matches(f, [random_disk_point(rng, 0.9) for _ in range(40)])

    def test_two_stage_composite(self):
        c = sm.compose(presets.example61(0.5), presets.example62())
        rng = np.random.default_rng(9)
        self.assert_batch_matches(c, [random_disk_point(rng, 0.8) for _ in range(20)])

    def test_zero_target_among_others(self):
        f = sm.FiniteBlaschkeProduct(1j, ((0.2 + 0.1j, 2), (-0.5j, 1), (0.7, 1)))
        targets = [0.3 - 0.1j, 0.0, 0.5j, 0.0, -0.2]
        batch = sm._fiber_table(f, targets).fibers()
        assert batch[1] == batch[3] == sorted(f.zeros, key=lambda t: (t[0].real, t[0].imag))
        self.assert_batch_matches(f, targets)
        c = sm.compose(f, presets.example61(0.5))
        self.assert_batch_matches(c, targets)

    def test_fiber_over_a_critical_value(self):
        f = sm.FiniteBlaschkeProduct(-1.0, ((0.2, 1), (-0.4, 1)))
        (crit, _), = sm.critical_points(f)
        targets = [0.1, sm.evaluate(f, crit), -0.3j]
        batch = sm._fiber_table(f, targets).fibers()
        assert [m for _, m in batch[1]] == [2]
        self.assert_batch_matches(f, targets)

    def test_empty_batch(self):
        assert sm._fiber_table(presets.example61(0.5), []).fibers() == []

    def test_stacked_roots_are_companion_eigenvalues(self):
        rng = np.random.default_rng(10)
        for degree in (1, 2, 5):
            polys = rng.normal(size=(30, degree + 1)) + 1j * rng.normal(size=(30, degree + 1))
            stacked = sm._stacked_roots(polys)
            for row, roots in zip(polys, stacked):
                if degree == 1:
                    expected = np.array([-row[0] / row[1]])
                else:
                    expected = np.sort(np.linalg.eigvals(npp.polycompanion(row)))
                assert np.array_equal(roots, expected)

    def test_one_point_layer_keeps_its_stage_fiber(self):
        # zeros 1e-10 apart are distinct zeros of the product, and the fiber
        # over 0 is its zero list: a one-stage composite gives that list too
        # (it merged the two into ((0.3+0j), 2)), and agrees off 0
        p = sm.FiniteBlaschkeProduct(1.0, [(0.3, 1), (0.3 + 1e-10, 1), (-0.5j, 1)])
        one = sm.CompositeMap((p,))
        for w in (0.0, 0.2 - 0.1j):
            assert bits(sm.preimages(one, w)) == bits(sm.preimages(p, w))
            assert bits(sm._fiber_table(one, [w, w]).fibers()[1]) == bits(sm.preimages(p, w))
        assert [m for _, m in sm.preimages(one, 0.0)] == [1, 1, 1]
        # the fiber over 0 of a last stage with a double zero is that zero
        # with multiplicity 2, which each point of the first stage's fiber
        # above it keeps
        cubic = sm.FiniteBlaschkeProduct(1.0, [(-0.5, 3)])
        quadratic = sm.FiniteBlaschkeProduct(1.0, [(-1 / 3, 2)])
        assert sm.preimages(quadratic, 0.0) == [(-1 / 3 + 0j, 2)]
        fiber = sm.preimages(sm.CompositeMap((cubic, quadratic)), 0.0)
        assert [m for _, m in fiber] == [2, 2, 2]
        assert bits(fiber) == bits([(z, 2) for z, _ in sm.preimages(cubic, -1 / 3)])

    def test_failed_fiber_is_returned_not_raised(self, monkeypatch):
        # no residual passes a negative tolerance, so only the exact fiber
        # over 0 survives
        monkeypatch.setattr(sm, "PREIMAGE_RESIDUAL_TOL", -1.0)
        f = presets.example61(0.5)
        batch = sm._fiber_table(f, [0.25, 0.0]).fibers()
        assert isinstance(batch[0], sm.RootFindingError)
        assert batch[1] == [((-0.5 + 0j), 2)]
        with pytest.raises(sm.RootFindingError, match="did not converge"):
            sm.preimages(f, 0.25)
        composite = sm._fiber_table(sm.compose(f, f), [0.0, 0.25]).fibers()
        assert all(isinstance(fiber, sm.RootFindingError) for fiber in composite)

    def test_target_outside_the_disk_rejected(self):
        with pytest.raises(ValueError):
            sm._fiber_table(presets.example61(0.5), [0.1, 1.5]).fibers()

    def test_first_target_outside_the_disk_is_named(self):
        # one lane test validates the batch, with ensure_disk_point's error
        # for the first bad target
        f = presets.example61(0.5)
        for bad in ([0.1, 1.5, complex("nan")], [0.1, complex(0.0, math.nan), 1.5]):
            with pytest.raises(ValueError) as lone:
                g.ensure_disk_point(bad[1])
            with pytest.raises(ValueError) as batch:
                sm._fiber_table(f, bad).fibers()
            assert str(batch.value) == str(lone.value)

    # a lane batch of targets with two at 0: at the package's tolerance no
    # fiber fails, at a tight one some do, and at a negative one every
    # fiber off 0 (and each of the composite's, past its first stage)
    @pytest.mark.parametrize("tol", ["package", "tight", "negative"])
    @pytest.mark.parametrize("which", ["product", "composite"])
    def test_fibers_are_the_split_of_the_table(self, monkeypatch, tol, which):
        # the product has a double zero; the composite is two rotated
        # example62 stages
        stage = sm.FiniteBlaschkeProduct(cmath.exp(-3j), [(-cmath.exp(1j) / 3.0, 2)])
        f, tight = {
            "product": (sm.FiniteBlaschkeProduct(1j, ((0.2 + 0.1j, 2), (-0.5j, 1), (0.7, 1))),
                        1e-16),
            "composite": (sm.CompositeMap((stage, stage)), 5e-16),
        }[which]
        rng = np.random.default_rng(18)
        targets = [random_disk_point(rng, 0.8) for _ in range(30)]
        targets[4] = targets[17] = 0.0
        monkeypatch.setattr(sm, "PREIMAGE_RESIDUAL_TOL",
                            {"package": sm.PREIMAGE_RESIDUAL_TOL, "tight": tight,
                             "negative": -1.0}[tol])
        table = sm._fiber_table(f, targets)
        fibers = table.fibers()
        assert table.size == len(fibers) == len(targets)
        assert (np.diff(table.owner) >= 0).all()
        for i, (w, fiber) in enumerate(zip(targets, fibers)):
            rows = np.flatnonzero(table.owner == i)
            if i in table.errors:
                assert outcome(fiber) == outcome(table.errors[i]) and len(rows) == 0
            else:
                split = list(zip(table.points[rows].tolist(), table.mults[rows].tolist()))
                assert bits(fiber) == bits(split)
                assert all(type(z) is complex and type(m) is int for z, m in fiber)
            assert outcome(fiber) == lone_outcome(f, w)
        failed = len(table.errors)
        assert {"package": failed == 0, "tight": 0 < failed < 28,
                "negative": failed == (28 if which == "product" else 30)}[tol]


def lane_mismatches(f, points) -> int:
    """Points where the lane kernel's f, and f and f', differ in any bit
    from _eval_fbp and _jet_fbp."""
    zr = np.array([[z.real for z in points]])
    zi = np.array([[z.imag for z in points]])
    stack = f._stack
    got = np.column_stack([x[0] for x in (*lanes.value(stack, zr, zi),
                                          *lanes.jet(stack, zr, zi))])
    scalar = []
    for z in points:
        v, (j0, j1, _) = sm._eval_fbp(f, z), sm._jet_fbp(f, z)
        scalar.append((v.real, v.imag, j0.real, j0.imag, j1.real, j1.imag))
    return int((got.view(np.int64) != np.array(scalar).view(np.int64)).any(axis=1).sum())


def lane_test_product(rng) -> sm.FiniteBlaschkeProduct:
    """Degree 1 to 6 with multiplicities 1 to 4: zeros at the origin, on the
    real axis (where signed zeros show), inside, and within 1e-3 to 1e-14 of
    the circle; gamma real or not."""
    left = int(rng.integers(1, 7))
    zeros = []
    while left:
        mult = int(rng.integers(1, min(left, 4) + 1))
        left -= mult
        kind = rng.integers(0, 4)
        if kind == 0:
            a = 0.0
        elif kind == 1:
            a = rng.uniform(-0.9, 0.9)
        elif kind == 2:
            a = random_disk_point(rng)
        else:
            a = (1.0 - 10.0 ** -rng.uniform(3, 14)) * cmath.exp(2j * math.pi * rng.random())
        zeros.append((a, mult))
    gamma = rng.choice([1.0, -1.0, cmath.exp(2j * math.pi * rng.random())])
    return sm.FiniteBlaschkeProduct(gamma, zeros)


LANE_POINTS = [
    0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
    complex(5e-324, -0.0), complex(-0.0, -5e-324), complex(-1e-310, 2.5e-320),
    complex(0.3, 1e-315), 1 + 0j, -1 + 0j, 1j, complex(-0.0, -1.0),
] + [cmath.exp(1j * t) for t in (0.1, 2.0, -2.5)]


class TestLanes:
    """The lane kernel rounds like Python complex scalars, and a wide batch
    of fibers polished in lanes is what preimages returns, bit for bit."""

    def test_operations_match_python(self):
        rng = np.random.default_rng(11)
        special = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 1.0, -1.0, 2.0, 0.5, 3.0, -3.0]
        parts = np.concatenate([
            rng.choice(special, 4000),
            rng.choice([-1.0, 1.0], 4000) * 10.0 ** rng.uniform(-8, 8, 4000),
        ])
        a = [complex(x, y) for x, y in zip(rng.permutation(parts), rng.permutation(parts))]
        b = [complex(x, y) for x, y in zip(rng.permutation(parts), rng.permutation(parts))]
        # |b.real| == |b.imag| on both sides of the quotient's branch
        b[:4] = [1 + 1j, -2 + 2j, 3 - 3j, complex(-0.5, -0.5)]
        b = [z if z != 0 else 1 + 0j for z in b]
        ar, ai = np.array([z.real for z in a]), np.array([z.imag for z in a])
        br, bi = np.array([z.real for z in b]), np.array([z.imag for z in b])
        cases = [(lanes.mul(ar, ai, br, bi), [x * y for x, y in zip(a, b)]),
                 (lanes.quot(ar, ai, br, bi), [x / y for x, y in zip(a, b)]),
                 ((np.hypot(ar, ai), np.zeros(len(a))), [complex(abs(x), 0.0) for x in a])]
        small = [complex(x.real % 10.0, x.imag % 10.0) for x in a]
        sr, si = np.array([z.real for z in small]), np.array([z.imag for z in small])
        cases += [(lanes.powu(sr, si, m), [z ** m for z in small]) for m in (1, 2, 3, 4, 7)]
        for (re, im), expected in cases:
            want = np.array([(z.real, z.imag) for z in expected])
            assert np.array_equal(np.column_stack([re, im]).view(np.int64), want.view(np.int64))

    def test_value_and_derivative_match_the_scalar_loops(self):
        rng = np.random.default_rng(12)
        degrees = set()
        for _ in range(150):
            f = lane_test_product(rng)
            degrees.add(f.degree)
            points = LANE_POINTS + [random_disk_point(rng, 0.999) for _ in range(40)]
            assert lane_mismatches(f, points) == 0
        assert degrees == {1, 2, 3, 4, 5, 6}

    @pytest.mark.parametrize("mult", [100, 101, 150])
    def test_high_multiplicity_matches_python_power(self, mult):
        # Python's complex power is binary powering up to 100 and _Py_c_pow
        # past it; the lanes power as it does
        rng = np.random.default_rng(13)
        f = sm.FiniteBlaschkeProduct(cmath.exp(0.3j), [(0.4 - 0.2j, mult), (0.0, 2), (-0.5j, 1)])
        points = LANE_POINTS + [random_disk_point(rng, 0.999) for _ in range(200)]
        assert lane_mismatches(f, points) == 0

    def test_numpy_complex_division_fails_the_bit_test(self, monkeypatch):
        def numpy_quot(ar, ai, br, bi):
            q = (np.asarray(ar) + 1j * np.asarray(ai)) / (np.asarray(br) + 1j * np.asarray(bi))
            return q.real, q.imag

        monkeypatch.setattr(lanes, "quot", numpy_quot)
        rng = np.random.default_rng(12)
        points = LANE_POINTS + [random_disk_point(rng, 0.999) for _ in range(40)]
        assert sum(lane_mismatches(lane_test_product(rng), points) for _ in range(20)) > 0

    assert_batch_matches = TestBatchedFibers.assert_batch_matches

    def assert_wide_batch_matches(self, f, targets):
        assert sum(w != 0 for w in targets) >= sm._LANE_MIN_TARGETS
        self.assert_batch_matches(f, targets)

    @pytest.mark.parametrize("alpha", [0.5, 0.55, 0.6, 0.7])
    def test_example61_generations(self, alpha):
        f = presets.example61(alpha)
        tr = orbits.grand_orbit(f, 0.0, forward_n=12, backward_depth=6)
        for depth in range(1, tr.backward_depth + 1):
            generation = [n.point for n in tr.nodes if n.backward_depth == depth - 1]
            if len(generation) >= sm._LANE_MIN_TARGETS:
                self.assert_wide_batch_matches(f, generation)

    def test_lanes_certify_simple_rows_and_leave_clusters(self):
        f = sm.FiniteBlaschkeProduct(-1.0, ((0.2, 1), (-0.4, 1)))
        (crit, _), = sm.critical_points(f)
        rng = np.random.default_rng(13)
        targets = [random_disk_point(rng, 0.9) for _ in range(30)]
        targets[7] = sm.evaluate(f, crit)
        w = np.array(targets)
        num, den = (rows[0] for rows in f._stack.coefficients)
        polys = f.gamma * num - w[:, None] * den
        _, certified = sm._lane_fibers(f._stack, w, sm._stacked_roots(polys))
        assert np.flatnonzero(~certified).tolist() == [7]
        self.assert_wide_batch_matches(f, targets)
        assert [m for _, m in sm._fiber_table(f, targets).fibers()[7]] == [2]

    def test_rows_from_moved_roots_are_fiber_rows_or_left_out(self, monkeypatch):
        # start Newton off the true roots: ten rows each where both roots
        # sit 1.2e-3 apart around one root (no cluster; polished onto one
        # point, which _fiber merges), where one root is 0.15 off (a step
        # over 0.1, which Newton refuses), and where both are 1e-4 off
        f = presets.example61(0.6)
        rng = np.random.default_rng(17)
        w = np.array([random_disk_point(rng, 0.9) for _ in range(30)])
        num, den = (rows[0] for rows in f._stack.coefficients)
        polys = f.gamma * num - w[:, None] * den
        roots = sm._stacked_roots(polys)
        moved = roots.copy()
        moved[:10] = roots[:10, :1] + np.array([6e-4, -6e-4])
        moved[10:20, 0] += 0.15
        moved[20:] += 1e-4

        def outcomes():
            """(certified, length of _fiber's fiber or False) per row, with
            each certified row checked against _fiber's."""
            found = []
            points, certified = sm._lane_fibers(f._stack, w, moved)
            for k, row in enumerate(points.tolist()):
                try:
                    expected = sm._fiber(f, complex(w[k]), polys[k], moved[k])
                except sm.RootFindingError:
                    expected = None
                if certified[k]:
                    assert bits([(z, 1) for z in row]) == bits(expected)
                found.append((bool(certified[k]), expected is not None and len(expected)))
            return found

        assert outcomes() == [(False, 1)] * 10 + [(False, False)] * 10 + [(True, 2)] * 10
        # with every residual accepted, a refused step leaves its root as it
        # was, in the lanes as in _fiber
        monkeypatch.setattr(sm, "PREIMAGE_RESIDUAL_TOL", 1.0)
        assert sum(certified for certified, _ in outcomes()[10:20]) >= 5

    def test_zero_targets_and_a_composite(self):
        f = sm.FiniteBlaschkeProduct(1j, ((0.2 + 0.1j, 2), (-0.5j, 1), (0.7, 1)))
        rng = np.random.default_rng(14)
        targets = [random_disk_point(rng, 0.8) for _ in range(24)]
        targets[3] = targets[11] = 0.0
        self.assert_wide_batch_matches(f, targets)
        self.assert_wide_batch_matches(sm.compose(f, presets.example61(0.5)), targets)

    def test_failing_rows_are_root_finding_errors(self, monkeypatch):
        f = presets.example61(0.6)
        rng = np.random.default_rng(15)
        targets = [random_disk_point(rng, 0.9) for _ in range(40)]
        # a tolerance near the polished residuals fails some rows only
        monkeypatch.setattr(sm, "PREIMAGE_RESIDUAL_TOL", 1e-16)
        batch = sm._fiber_table(f, targets).fibers()
        failed = sum(isinstance(fiber, sm.RootFindingError) for fiber in batch)
        assert 0 < failed < len(targets)
        for w, fiber in zip(targets, batch):
            try:
                lone = sm.preimages(f, w)
            except sm.RootFindingError as exc:
                assert isinstance(fiber, sm.RootFindingError)
                assert str(fiber) == str(exc)
            else:
                assert bits(fiber) == bits(lone)

    def test_product_with_many_zeros_stays_scalar(self, monkeypatch):
        rng = np.random.default_rng(16)
        points = [random_disk_point(rng, 0.8) for _ in range(33)]
        # built from a validated table, as the program builds such products;
        # its evaluation reads its stack of one alone
        f = sm.FiniteBlaschkeProduct._from_table(1.0 + 0.0j, zip(points, [1] * 33))
        sm.evaluate(f, 0.1j)
        assert "_stack" in vars(f) and "factors" not in vars(f)

        def refuse(*args):
            raise AssertionError("lanes used on a product with more than 32 zeros")

        monkeypatch.setattr(sm, "_lane_fibers", refuse)
        self.assert_wide_batch_matches(f, [random_disk_point(rng, 0.5) for _ in range(20)])


def scalar_table(entries):
    """zeros and factors of a product as the scalar loop of
    FiniteBlaschkeProduct.__init__ builds them, and from them the columns of
    its stack of one: zeros, _conj and _u as (1, k) arrays, the origin mask
    _origin and the multiplicities _mult."""
    zeros = sm._normalize_zeros(entries)
    factors = tuple((a, a.conjugate(), 1.0 if a == 0 else -g.unit_direction(a), m)
                    for a, m in zeros)
    a, ac, u, m = (np.array([col]) for col in zip(*factors))
    return zeros, factors, {"zeros": a, "_conj": ac, "_u": u, "_origin": a[0] == 0, "_mult": m[0]}


def exact(value):
    """A value's type with its bits."""
    if isinstance(value, complex):
        return "complex", value.real.hex(), value.imag.hex()
    if isinstance(value, float):
        return "float", value.hex()
    return type(value).__name__, value


def row_product(stack, r):
    """Row r of a stack as the public constructor builds it, validated and
    merged: the reference for the row's product on its own."""
    return sm.FiniteBlaschkeProduct(complex(stack.gamma[r, 0]),
                                    list(zip(stack.zeros[r].tolist(), stack.mults)))


def assert_table_is_scalar(f, entries):
    zeros, factors, columns = scalar_table(entries)
    assert [tuple(map(exact, z)) for z in f.zeros] == [tuple(map(exact, z)) for z in zeros]
    assert ([tuple(map(exact, row)) for row in f.factors]
            == [tuple(map(exact, row)) for row in factors])
    stack = f._stack
    # the scalar paths rebuild the product from the stack's row
    row = sm._row_product(stack, 0)
    assert [tuple(map(exact, z)) for z in row.zeros] == [tuple(map(exact, z)) for z in zeros]
    assert [tuple(map(exact, r)) for r in row.factors] == [tuple(map(exact, r)) for r in factors]
    for name, want in columns.items():
        got = getattr(stack, name)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), name
    assert stack.mults == tuple(m for _, m in zeros)


def stack_built(f) -> bool:
    """Whether f holds its stack of one yet (every product builds it on
    first use)."""
    return "_stack" in vars(f)


def special_zeros(rng, n) -> list:
    """n (zero, multiplicity) pairs led by the origin as -0.0 - 0.0j,
    subnormal parts, signed zero parts and parts of equal magnitude."""
    lead = [complex(-0.0, -0.0), complex(5e-324, 0.3), complex(1e-310, -1e-310),
            complex(-5e-324, -0.0), complex(-1e-320, 2e-320), complex(-0.0, 0.5),
            complex(0.3, -0.0), complex(0.0, -0.7), complex(-0.4, 0.4),
            complex(1 - 2e-15, 0.0)]
    points = lead + [random_disk_point(rng, 0.999) for _ in range(n - len(lead))]
    return [(z, int(m)) for z, m in zip(points, rng.integers(1, 4, n))]


class TestSmallProductStack:
    """A product of at most 32 zeros copies its stack's u column from its
    factors, bit for bit what lanes.direction builds for the same zeros."""

    @staticmethod
    def products():
        yield from (presets.example61(0.5), presets.example61(0.6), presets.example62(),
                    presets.translation(), presets.power_map(3), sm.identity_map())
        rng = np.random.default_rng(26)
        for _ in range(200):
            gamma, zeros = properties._random_product(rng)
            yield sm.FiniteBlaschkeProduct(gamma, zeros)
            # with a zero at the origin, which has no direction
            yield sm.FiniteBlaschkeProduct(gamma, [(0.0, 2), *zeros])
        yield sm.FiniteBlaschkeProduct(1.0, special_zeros(np.random.default_rng(32), 32))

    def test_u_from_factors_is_the_lanes_column(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("lanes.direction on a product of at most 32 zeros")

        for f in self.products():
            assert len(f.zeros) <= sm._SCALAR_MAX_ZEROS
            with monkeypatch.context() as m:
                m.setattr(lanes, "direction", refuse)
                got = f._stack._u
            zeros = np.array([[a for a, _ in f.zeros]])
            want = ps._ProductStack(np.array([f.gamma]), zeros, [m for _, m in f.zeros])._u
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), f


class TestLargeProductTable:
    """A product of more than 32 zeros, built from a validated table
    (FiniteBlaschkeProduct._from_table) or by the constructor, has the
    scalar loop's table, and its stack of one the same columns bit for bit,
    built on first use; evaluating it reads that stack alone."""

    @pytest.mark.parametrize("n", [33, 100])
    def test_special_zeros(self, n):
        entries = special_zeros(np.random.default_rng(n), n)
        for zeros in (entries, tuple(entries)):
            f = sm.FiniteBlaschkeProduct._from_table(1.0 + 0.0j, zeros)
            assert not stack_built(f)
            # evaluating reads the stack alone
            sm.evaluate(f, 0.1 - 0.2j)
            assert stack_built(f) and "factors" not in vars(f)
            assert_table_is_scalar(f, entries)
        # the constructor: the scalar loop, and the stack on first use
        for zeros in (entries, entries[:32]):
            f = sm.FiniteBlaschkeProduct(1.0, zeros)
            assert not stack_built(f)
            assert_table_is_scalar(f, zeros)

    def test_grand_orbit_product(self):
        tr = orbits.grand_orbit(presets.example61(0.6), 0.0, 12, 8)
        entries = tuple((n.point, n.multiplicity) for n in tr.nodes)
        f = eigen.build_truncated_eigenfunction(tr)
        assert len(entries) == 3328 and not stack_built(f)
        assert_table_is_scalar(f, entries)

    def test_product_built_in_lanes_is_freed_by_reference_counting(self):
        # a product and its stack in a reference cycle waited for a full
        # collection, and an eigen job's peak memory rose by 7 MB
        f = sm.FiniteBlaschkeProduct._from_table(
            1.0 + 0.0j, special_zeros(np.random.default_rng(33), 40))
        sm.evaluate(f, 0.3)
        assert stack_built(f)
        enabled = gc.isenabled()
        gc.disable()
        try:
            gone = weakref.ref(f)
            del f
            assert gone() is None
        finally:
            if enabled:
                gc.enable()

    def test_repeated_zeros_merge_into_the_first(self):
        entries = special_zeros(np.random.default_rng(7), 40)
        # the origin again with other signs, and two more exact repeats
        entries += [(0j, 2), entries[5], (entries[20][0], 3)]
        f = sm.FiniteBlaschkeProduct(1.0, entries)
        assert not stack_built(f) and len(f.zeros) == 40
        assert exact(f.zeros[0][0]) == exact(complex(-0.0, -0.0))
        assert_table_is_scalar(f, entries)

    @pytest.mark.parametrize("spell", [
        lambda z, m: (z.real, m) if z.imag == 0 else (z, m),
        lambda z, m: (z, float(m)),
        lambda z, m: (z, np.int64(m)),
        lambda z, m: (z, np.uint8(m)),
        # beyond int64
        lambda z, m: (z, 2 ** 63) if m == 3 else (z, m),
    ])
    def test_other_spellings_take_the_scalar_loop(self, spell):
        entries = [spell(z, m) for z, m in special_zeros(np.random.default_rng(8), 40)]
        f = sm.FiniteBlaschkeProduct(1.0, entries)
        assert not stack_built(f)
        assert_table_is_scalar(f, entries)

    def test_bare_points_and_iterators_take_the_scalar_loop(self):
        entries = special_zeros(np.random.default_rng(11), 40)
        points = [z for z, _ in entries]
        for zeros, spelled in ((points, points), (iter(entries), entries)):
            f = sm.FiniteBlaschkeProduct(1.0, zeros)
            assert not stack_built(f)
            assert_table_is_scalar(f, spelled)

    @pytest.mark.parametrize("bad", [
        (complex(1 - 1e-16, 0.0), 1), (complex(0.6, 0.8), 1), (-1.5j, 2),
        (0.2j, 0), (0.2j, -1), (0.2j, "two"), (0.2j, None), (0.2j, 1.5j),
        (complex(math.nan, 0.3), 1), (complex(0.3, math.nan), 1), (complex(math.inf, 0.0), 1),
        (0.2j, math.nan), (0.2j, math.inf), (0.2j, True), (0.2j, np.True_),
    ])
    def test_invalid_input_raises_the_scalar_error(self, bad):
        entries = special_zeros(np.random.default_rng(9), 50)
        entries[30] = bad
        with pytest.raises(Exception) as want:
            scalar_table(entries)
        with pytest.raises(type(want.value)) as got:
            sm.FiniteBlaschkeProduct(1.0, entries)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("flag", [True, False, np.True_, np.False_])
    def test_bool_multiplicity_is_refused(self, flag):
        # int(True) is 1: a bool read as a number built a simple zero
        message = f"^zero multiplicity must be an integer, got {flag!r}$"
        for zeros in ([(0.3, flag)], [(0.3, 1), (0.2j, flag)]):
            with pytest.raises(ValueError, match=message):
                sm.FiniteBlaschkeProduct(1.0, zeros)

    def test_fractional_multiplicity_is_refused(self):
        entries = special_zeros(np.random.default_rng(10), 50)
        entries[12] = (entries[12][0], 2.5)
        message = "^zero multiplicity must be an integer, got 2.5$"
        for zeros in (entries, [(0.3, 2.5)], [(0.3, 1), (0.2j, 2.5)]):
            with pytest.raises(ValueError, match=message):
                sm.FiniteBlaschkeProduct(1.0, zeros)
        # an integral float is the integer
        entries[12] = (entries[12][0], 2.0)
        assert_table_is_scalar(sm.FiniteBlaschkeProduct(1.0, entries), entries)
        assert sm.FiniteBlaschkeProduct(1.0, [(0.3, 2.0)]).zeros == ((0.3 + 0j, 2),)

    @pytest.mark.parametrize("n", [1, 40])
    def test_nan_and_inf_zeros_are_refused(self, n):
        entries = special_zeros(np.random.default_rng(12), n)
        for bad in (complex(math.nan, 0.2), complex(0.2, math.inf)):
            entries[-1] = (bad, 1)
            with pytest.raises(ValueError, match="is not strictly inside the unit disk"):
                sm.FiniteBlaschkeProduct(1.0, entries)


class TestValidatedTables:
    """The products the program builds from its own validated tables, a
    grand orbit's nodes and a stack's rows, are not checked or merged again,
    and are the constructor's products bit for bit."""

    @pytest.fixture(scope="class")
    def grand_orbit(self):
        return orbits.grand_orbit(presets.example61(0.6), 0, 12, 8)

    def test_stack_rows_are_not_validated_again(self, monkeypatch):
        f = presets.example61(0.6)
        rng = np.random.default_rng(18)
        # too few targets for the lanes: each fiber is _fiber's, on the
        # stack row's product
        targets = [random_disk_point(rng, 0.9) for _ in range(sm._LANE_MIN_TARGETS - 1)]
        want = [bits(fiber) for fiber in sm._fiber_table(f, targets).fibers()]

        def refuse(zeros):
            raise AssertionError("a stack's row was validated again")

        monkeypatch.setattr(sm, "_normalize_zeros", refuse)
        assert [bits(fiber) for fiber in sm._fiber_table(f, targets).fibers()] == want

    @pytest.mark.parametrize("depth", range(9))
    def test_truncated_eigenfunction_is_the_constructors_product(self, grand_orbit, depth):
        tr = grand_orbit.prefix(depth)
        entries = [(n.point, n.multiplicity) for n in tr.nodes]
        b = eigen.build_truncated_eigenfunction(tr)
        want = sm.FiniteBlaschkeProduct(1.0, entries)
        # small depths are evaluated by the scalar loop, deep ones by numpy
        assert depth > 0 or len(entries) == 13
        assert exact(b.gamma) == exact(want.gamma)
        assert_table_is_scalar(b, entries)
        samples = eigen.ring_samples(0.4)
        points = samples + [sm.evaluate(presets.example61(0.6), z) for z in samples]
        assert [exact(b(z)) for z in points] == [exact(want(z)) for z in points]


def convolve_substitute(f, a, b):
    """_substitute of one product as np.convolve computes it, factor by
    factor: the reference of the stacked windowed dot."""
    num = den = np.ones(1, dtype=complex)
    for c, c_conj, u, mult in f.factors:
        fac_n, fac_d = u * (a - c * b), b - c_conj * a
        for _ in range(mult):
            num, den = np.convolve(num, fac_n), np.convolve(den, fac_d)
    return num, den


# nonzero zeros with subnormal or signed-zero parts, one per column
EDGE_ZEROS = [complex(5e-324, 0.3), complex(1e-310, -1e-310), complex(-0.0, 0.5),
              complex(0.3, -0.0), complex(0.0, -0.7), complex(-1e-320, 2e-320)]


def special_stack(rng, n, mults, at_origin=()):
    """A stack of n products with the given multiplicities: the columns in
    at_origin are the origin in every row (as 0 with either sign in each
    part), every other column mixes random disk points, zeros within 1e-14
    of the circle and EDGE_ZEROS; gamma real or not."""
    cols = []
    for j in range(len(mults)):
        if j in at_origin:
            signed = [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]
            cols.append([signed[k] for k in rng.integers(0, 4, n)])
            continue
        kinds = rng.integers(0, 3, n)
        cols.append([random_disk_point(rng, 0.95) if kind == 0
                     else (1.0 - 1e-14) * cmath.exp(2j * math.pi * rng.random()) if kind == 1
                     else EDGE_ZEROS[j] for kind in kinds])
    gamma = [rng.choice([1.0, -1.0, cmath.exp(2j * math.pi * rng.random())]) for _ in range(n)]
    gamma, zeros = np.array(gamma, dtype=complex), np.array(cols, dtype=complex).T
    return ps._ProductStack(gamma, zeros, mults)


def special_stacks(rng):
    """Stacks of degree 1 to 4: a zero at the origin, a double zero, both,
    and simple zeros only."""
    patterns = [((1,), ()), ((1,), (0,)), ((2,), ()), ((1, 1), (0,)), ((2, 1), ()),
                ((1, 2), (0,)), ((1, 1, 1), ()), ((1, 1, 1, 1), (2,)), ((2, 2), ()),
                ((3, 1), (1,))]
    return [special_stack(rng, 40, mults, origin) for mults, origin in patterns]


def criterion_stacks(count=300, max_degree=4, seed=21):
    """Products drawn as criterion 10 draws them, stacked."""
    rng = np.random.default_rng(seed)
    products = [properties._random_product(rng, max_degree) for _ in range(count)]
    return products, properties._stack_products(products)


def outcome(fiber):
    """A fiber's exact bits, or its error's type and message."""
    if isinstance(fiber, Exception):
        return type(fiber).__name__, str(fiber)
    return bits(fiber)


def lone_outcome(f, w):
    try:
        return outcome(sm.preimages(f, w))
    except sm.RootFindingError as exc:
        return outcome(exc)


class TestProductStacks:
    """A stack of products of one zero pattern gives, row by row, what each
    product gives on its own, bit for bit: constants, N and D, values and
    derivatives in lanes, and fibers with their order, multiplicities and
    errors."""

    def test_deleting_a_product_frees_its_stack(self):
        # a stack holds its columns only: no reference back to the product,
        # so no cycle waits for a collection
        enabled = gc.isenabled()
        gc.disable()
        try:
            f = presets.example62()
            stack = weakref.ref(f._stack)
            del f
            assert stack() is None
        finally:
            if enabled:
                gc.enable()

    def test_constants_are_the_products(self):
        rng = np.random.default_rng(30)
        _, (stacks, _, _) = criterion_stacks()
        for stack in stacks + special_stacks(rng):
            for r in range(len(stack)):
                f = row_product(stack, r)
                assert exact(complex(stack.gamma[r, 0])) == exact(f.gamma)
                for (a, ac, u, m), k, (fa, fac, fu, fm) in zip(stack.factors, stack.slopes,
                                                               f.factors):
                    assert m == fm
                    assert [exact(complex(x[r, 0])) for x in (a, ac)] == [exact(fa), exact(fac)]
                    if fa != 0:
                        assert exact(complex(u[r, 0])) == exact(fu)
                        assert exact(complex(k[r, 0])) == exact(fu * (1.0 - abs(fa) ** 2))

    @pytest.mark.parametrize("built", [False, True])
    def test_take_is_the_stack_of_its_rows(self, built):
        # take builds a stack from the rows' constants: every array, cached
        # or not, is the parent's sliced (per-row arrays) or the parent's
        # (per-column ones), bit for bit
        rng = np.random.default_rng(32)
        _, (stacks, _, _) = criterion_stacks()
        for stack in stacks + special_stacks(rng):
            if built:
                stack.slopes, stack.coefficients
            n = len(stack)
            parts = [(rows, stack.take(rows)) for rows in (
                rng.permutation(n), rng.integers(0, n, n + 7), rng.integers(0, n, 1))]
            for rows, part in parts:
                assert part.mults == stack.mults and part.degree == stack.degree
                want = {"gamma": stack.gamma[rows], "zeros": stack.zeros[rows],
                        "_conj": stack._conj[rows], "_u": stack._u[rows],
                        "_origin": stack._origin, "_mult": stack._mult,
                        "_raised": np.concatenate(stack._raised),
                        "slopes": np.hstack(stack.slopes)[rows],
                        "num": stack.coefficients[0][rows], "den": stack.coefficients[1][rows]}
                got = {"gamma": part.gamma, "zeros": part.zeros, "_conj": part._conj,
                       "_u": part._u, "_origin": part._origin, "_mult": part._mult,
                       "_raised": np.concatenate(part._raised), "slopes": np.hstack(part.slopes),
                       "num": part.coefficients[0], "den": part.coefficients[1]}
                for name, array in want.items():
                    assert got[name].dtype == array.dtype, name
                    assert got[name].shape == array.shape, name
                    assert got[name].tobytes() == array.tobytes(), name

    def test_coefficients_are_np_convolve(self):
        rng = np.random.default_rng(31)
        _, (stacks, _, _) = criterion_stacks()
        forms = [(np.array([0.0, 1.0 + 0.0j]), np.array([1.0 + 0.0j, 0.0])),
                 (np.array([-1.0, 1.0]), np.array([1.0, 1.0])),
                 (cmath.exp(0.7j) * np.array([-1.0, 1.0]), np.array([1.0, 1.0])),
                 (rng.normal(size=5) + 1j * rng.normal(size=5),
                  rng.normal(size=5) + 1j * rng.normal(size=5))]
        for stack in stacks + special_stacks(rng):
            for a, b in forms:
                num, den = ps._substitute(stack, a, b)
                for r in range(len(stack)):
                    want = convolve_substitute(row_product(stack, r), a, b)
                    assert num[r].tobytes() == want[0].tobytes()
                    assert den[r].tobytes() == want[1].tobytes()

    def test_values_and_jets_are_the_scalar_loops(self):
        rng = np.random.default_rng(32)
        _, (stacks, _, _) = criterion_stacks()
        for stack in stacks + special_stacks(rng):
            points = np.array([[random_disk_point(rng, 0.999) for _ in range(20)] + LANE_POINTS
                               for _ in range(len(stack))])
            got = [lanes.value(stack, points.real, points.imag),
                   lanes.jet(stack, points.real, points.imag)]
            got = np.stack([x for pair in got for x in pair], axis=-1)
            want = np.array([[(v.real, v.imag, j0.real, j0.imag, j1.real, j1.imag)
                              for v, (j0, j1, _) in ((sm._eval_fbp(f, z), sm._jet_fbp(f, z))
                                                     for z in row.tolist())]
                             for f, row in ((row_product(stack, r), points[r])
                                            for r in range(len(stack)))])
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_stacked_values_are_evaluate(self):
        products, stacked = criterion_stacks()
        rng = np.random.default_rng(33)
        points = np.array([[random_disk_point(rng, 1.0) for _ in range(3)] + [1j, -1.0]
                           for _ in products])
        values = properties._stacked_values(*stacked, points)
        want = [[sm.evaluate(sm.FiniteBlaschkeProduct(*p), z) for z in row.tolist()]
                for p, row in zip(products, points)]
        assert [[exact(complex(v)) for v in row] for row in values.tolist()] == \
            [[exact(v) for v in row] for row in want]

    def test_fibers_are_preimages(self):
        rng = np.random.default_rng(34)
        doubled = 0
        for stack in special_stacks(rng):
            rows = rng.integers(0, len(stack), 90)
            targets = [random_disk_point(rng, 0.9) for _ in rows]
            targets[::9] = [0.0] * len(targets[::9])
            # over a critical value the fiber has a double point, which
            # only _fiber finds (critical_points itself is left to products
            # with plain zeros)
            for k in range(4, 90, 9):
                f = row_product(stack, rows[k])
                if all(1e-3 < abs(a) < 0.99 for a, _ in f.zeros) and f.degree > 1:
                    targets[k] = sm.evaluate(f, sm.critical_points(f)[0][0])
            which = np.zeros(len(rows), dtype=np.intp)
            fibers = sm._product_fibers([stack], which, rows,
                                        np.array(targets, dtype=complex)).fibers()
            assert [outcome(fiber) for fiber in fibers] == \
                [lone_outcome(row_product(stack, r), w)
                 for r, w in zip(rows.tolist(), targets)]
            doubled += sum(isinstance(fiber, list) and any(m == 2 for _, m in fiber)
                           for k, fiber in enumerate(fibers) if k % 9 == 4)
        assert doubled >= 10

    def test_criterion_fibers_are_preimages(self, monkeypatch):
        products, (stacks, which, row) = criterion_stacks(600)
        rng = np.random.default_rng(35)
        targets = [random_disk_point(rng, 0.8) for _ in products]
        for tol in (sm.PREIMAGE_RESIDUAL_TOL, 3e-16):
            # the tighter tolerance fails some fibers of every degree
            monkeypatch.setattr(sm, "PREIMAGE_RESIDUAL_TOL", tol)
            fibers = sm._product_fibers(stacks, which, row,
                                        np.array(targets, dtype=complex)).fibers()
            want = [lone_outcome(sm.FiniteBlaschkeProduct(*p), w)
                    for p, w in zip(products, targets)]
            assert [outcome(fiber) for fiber in fibers] == want
        failed = {len(p[1]) for p, w in zip(products, want) if w[0] == "RootFindingError"}
        assert failed == {1, 2, 3, 4}

    def test_one_call_is_one_call_per_stack(self, monkeypatch):
        # stacks of degree 1, 3 and 4 with their targets interleaved: the
        # degree-3 stack's batch goes through the lanes, the others fiber by
        # fiber; two targets are 0, and _fiber refuses one degree-1 row
        rng = np.random.default_rng(37)
        special = special_stacks(rng)
        stacks = [special[0], special[4], special[8]]
        which = rng.permutation(np.repeat(np.arange(3, dtype=np.intp), [8, 30, 6]))
        rows = rng.integers(0, 40, len(which))
        targets = np.array([random_disk_point(rng, 0.9) for _ in which])
        targets[np.flatnonzero(which == 1)[3]] = targets[np.flatnonzero(which == 2)[0]] = 0.0
        refused = np.flatnonzero(which == 0)[2]
        fiber = sm._fiber

        def refuse(f, w, poly, roots):
            if w == targets[refused]:
                raise sm.RootFindingError("refused", 1.0)
            return fiber(f, w, poly, roots)

        monkeypatch.setattr(sm, "_fiber", refuse)
        assert (np.count_nonzero(targets[which == 1]) >= sm._LANE_MIN_TARGETS
                > np.count_nonzero(targets[which == 0]))
        table = sm._product_fibers(stacks, which, rows, targets)
        owner, points, mults, errors = [], [], [], {}
        for s, stack in enumerate(stacks):
            sel = np.flatnonzero(which == s)
            part = sm._product_fibers([stack], np.zeros(len(sel), dtype=np.intp), rows[sel],
                                      targets[sel])
            owner.append(sel[part.owner])
            points.append(part.points)
            mults.append(part.mults)
            errors.update((int(sel[k]), e) for k, e in part.errors.items())
        order = np.argsort(np.concatenate(owner), kind="stable")
        for got, want in ((table.owner, owner), (table.points, points), (table.mults, mults)):
            want = np.concatenate(want)[order]
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert table.size == len(targets)
        assert refused in errors
        assert {k: outcome(e) for k, e in table.errors.items()} == \
            {k: outcome(e) for k, e in errors.items()}

    def test_composite_fibers_are_preimages(self, monkeypatch):
        rng = np.random.default_rng(36)
        inner = [properties._random_product(rng, 3) for _ in range(150)]
        outer = [properties._random_product(rng, 3) for _ in range(150)]
        targets = [random_disk_point(rng, 0.8) for _ in inner]
        targets[5] = 0.0
        stages = [properties._stack_products(inner), properties._stack_products(outer)]
        for tol in (sm.PREIMAGE_RESIDUAL_TOL, 5e-16):
            monkeypatch.setattr(sm, "PREIMAGE_RESIDUAL_TOL", tol)
            fibers = sm._composite_fibers(stages, np.arange(len(targets)),
                                          np.array(targets, dtype=complex)).fibers()
            want = [lone_outcome(sm.compose(sm.FiniteBlaschkeProduct(*f),
                                            sm.FiniteBlaschkeProduct(*g)), w)
                    for g, f, w in zip(inner, outer, targets)]
            assert [outcome(fiber) for fiber in fibers] == want


class TestAngularDerivative:
    def test_hyperbolic_contact(self):
        # the Poisson sum 2 (1 - 0.36) / 1.6^2 of the float zero -0.6 is
        # 0.5 + 3.5e-17, which rounds to 0.5
        assert sm.angular_derivative(presets.example61(0.6), 1.0) == 0.5
        # independent check through the exact boundary derivative
        assert abs(sm.derivative(presets.example61(0.6), 1.0)) == pytest.approx(
            0.5, abs=1e-13
        )

    def test_parabolic_contact(self):
        assert sm.angular_derivative(presets.example62(), 1.0) == 1.0

    def test_identity(self):
        for omega in (1.0, 1j, cmath.exp(2.1j)):
            assert sm.angular_derivative(sm.identity_map(), omega) == 1.0

    def test_boundary_value_and_radial_quotient(self):
        # omega = 1 is fixed, and the radial quotient (1 - |f(r)|) / (1 - r)
        # tends to a like (1 - r): 1 - r = 2^-20 leaves it within 1e-6
        f = presets.example61(0.6)
        a = sm.angular_derivative(f, 1.0)
        assert abs(sm.evaluate(f, 1.0) - 1.0) < 1e-12
        r = 1.0 - 2.0 ** -20
        assert abs((1.0 - abs(sm.evaluate(f, r))) / (1.0 - r) - a) < 1e-6


class TestCriticalPoints:
    def test_example_critical_point(self):
        assert sm.critical_points(presets.example61(0.5)) == [((-0.5 + 0j), 1)]

    def test_square_map(self):
        assert sm.critical_points(presets.power_map(2)) == [(0j, 1)]

    def test_degree_one_has_none(self):
        assert sm.critical_points(presets.translation()) == []

    def test_count_matches_degree_random(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            f = random_blaschke(rng)
            cps = sm.critical_points(f)
            assert sum(m for _, m in cps) == f.degree - 1
            for c, _ in cps:
                assert abs(sm.derivative(f, c)) < 1e-8

    def test_overflowing_companion_matrix_is_a_root_finding_error(self):
        # a zero 1.4e-310 from the origin: the critical-point polynomial's
        # leading coefficient is subnormal, and normalizing by it overflows
        f = sm.FiniteBlaschkeProduct(-1.0, [(0j, 1), (1e-310 - 1e-310j, 1)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(sm.RootFindingError, match="non-finite"):
                sm.critical_points(f)

    def test_triple_zero_is_an_exact_double_critical_point(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            zeros = [(random_disk_point(rng, 0.85), 3)] + [
                (random_disk_point(rng, 0.85), 1) for _ in range(int(rng.integers(0, 3)))
            ]
            f = sm.FiniteBlaschkeProduct(cmath.exp(2j * math.pi * rng.random()), zeros)
            cps = sm.critical_points(f)
            assert (zeros[0][0], 2) in cps
            assert sum(m for _, m in cps) == f.degree - 1

    def test_multiple_zero_near_the_circle(self):
        # N'D - ND' also carries the mirror factor (1 - conj(a) z)^(m-1),
        # whose root 1e-14 outside the circle rounded back inside
        a = -0.7309684097015199 + 0.6824113012094767j
        assert sm.critical_points(sm.FiniteBlaschkeProduct(1.0, [(a, 2)])) == [(a, 1)]
        rng = np.random.default_rng(13)
        for _ in range(200):
            a = (1 - 10 ** rng.uniform(-14.5, -12)) * cmath.exp(2j * math.pi * rng.random())
            m = int(rng.integers(2, 5))
            f = sm.FiniteBlaschkeProduct(cmath.exp(2j * math.pi * rng.random()), [(a, m)])
            assert sm.critical_points(f) == [(a, m - 1)]


def critical_points_by_value(f):
    """critical_points of a composite with one preimages call per critical
    point of each later stage."""
    stages = f.stages
    result = list(sm.critical_points(stages[0]))
    prefix = stages[0]
    for k in range(1, len(stages)):
        for c, m in sm.critical_points(stages[k]):
            for z, mz in sm.preimages(prefix, c):
                result.append((z, m * mz))
        prefix = sm.CompositeMap(stages[: k + 1])
    result = sm._merge_pseudo_hyperbolic(result)
    result.sort(key=sm._re_im)
    return result


def stage_of_degree(rng, degree, double=False):
    """A seeded product of the given degree, its first zero double if asked."""
    zeros = [(random_disk_point(rng, 0.85), 1) for _ in range(degree - double)]
    if double:
        zeros[0] = (zeros[0][0], 2)
    return sm.FiniteBlaschkeProduct(cmath.exp(2j * math.pi * rng.random()), zeros)


def outcome_of(fn, f):
    """("ok", bits) of fn(f), or its RootFindingError's type and message."""
    try:
        return "ok", bits(fn(f))
    except sm.RootFindingError as exc:
        return outcome(exc)


class TestCompositeCriticalPoints:
    """A composite's later-stage critical points are pulled back through the
    prefix in one _fiber_table call per stage; the result, or the error, is that
    of one preimages call per point, bit for bit."""

    # (stage degrees, index of the stage with a double zero); the last
    # pulls 5 points back through a degree-12 prefix, a first-stage layer
    # of 20 points, which is solved in lanes
    SHAPES = [((2, 3), None), ((3, 2), 1), ((2, 2, 3), 0), ((3, 4, 6), 2)]

    def composites(self, seed):
        rng = np.random.default_rng(seed)
        for degrees, double in self.SHAPES:
            yield sm.CompositeMap(tuple(stage_of_degree(rng, d, k == double)
                                        for k, d in enumerate(degrees)))

    @pytest.mark.parametrize("seed", [41, 42, 43])
    def test_as_one_point_at_a_time(self, seed):
        for f in self.composites(seed):
            cps = sm.critical_points(f)
            assert bits(cps) == bits(critical_points_by_value(f))
            assert sum(m for _, m in cps) == f.degree - 1

    def test_first_failed_fiber(self, monkeypatch):
        monkeypatch.setattr(sm, "PREIMAGE_RESIDUAL_TOL", 3e-16)
        errors = 0
        for seed in (41, 42, 43):
            for f in self.composites(seed):
                want = outcome_of(critical_points_by_value, f)
                assert outcome_of(sm.critical_points, f) == want
                errors += want[0] == "RootFindingError"
        assert errors > 0


class TestSchwarzPick:
    def test_contraction(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            f = random_blaschke(rng)
            z, w = random_disk_point(rng), random_disk_point(rng)
            lhs = g.pseudo_hyperbolic(sm.evaluate(f, z), sm.evaluate(f, w))
            assert lhs <= g.pseudo_hyperbolic(z, w) + 1e-12


class TestHalfPlaneConjugate:
    def test_matches_disk_evaluation(self):
        f = presets.example61(0.6)
        hp = sm.HalfPlaneConjugate(f, 1.0)
        rng = np.random.default_rng(8)
        for _ in range(30):
            z = random_disk_point(rng, 0.8)
            w = g.cayley_to_rhp(z)
            expected = g.cayley_to_rhp(sm.evaluate(f, z))
            assert hp.apply(w) == pytest.approx(expected, rel=1e-12)

    def test_stable_for_huge_arguments(self):
        hp = sm.HalfPlaneConjugate(presets.example61(0.6), 1.0)
        w = 1e200 + 3e199j
        out = hp.apply(w)
        assert np.isfinite(out.real) and np.isfinite(out.imag)
        assert out.real > 0
        # near infinity the map acts like division by the boundary derivative
        assert abs(out / w - 2.0) < 1e-6

    def test_returns_python_complex(self):
        # like evaluate: orbit loops then run on Python scalars, not numpy's
        for f in (presets.example61(0.6), sm.compose(presets.example62(), presets.example62())):
            hp = sm.HalfPlaneConjugate(f, 1.0)
            for w in (1.5 + 0.5j, 1e200 + 3e199j):
                assert type(hp.apply(w)) is complex

    def test_exact_translation_form(self):
        hp = sm.HalfPlaneConjugate(presets.translation(), 1.0)
        assert hp.apply(3.0 + 2.0j) == 3.0 + 1.0j

    def test_rotated_attracting_point(self):
        # e^{it} f(e^{-it} z) for f = example62 fixes omega = e^{it}
        omega = cmath.exp(1.0j)
        f = sm.FiniteBlaschkeProduct(omega ** -3, ((-omega / 3.0, 2),))
        hp = sm.HalfPlaneConjugate(f, omega)
        rng = np.random.default_rng(9)
        for _ in range(30):
            z = random_disk_point(rng, 0.8)
            w = g.cayley_to_rhp(omega.conjugate() * z)
            expected = g.cayley_to_rhp(omega.conjugate() * sm.evaluate(f, z))
            assert hp.apply(w) == pytest.approx(expected, rel=1e-12)

    def test_composite_stages(self):
        f = presets.example61(0.5)
        c = sm.compose(f, f)
        hp = sm.HalfPlaneConjugate(c, 1.0)
        z = 0.4 + 0.2j
        expected = g.cayley_to_rhp(sm.evaluate(c, z))
        assert hp.apply(g.cayley_to_rhp(z)) == pytest.approx(expected, rel=1e-11)


class TestIdentityHelpers:
    def test_is_identity(self):
        assert sm.is_identity(sm.identity_map())
        assert not sm.is_identity(presets.example62())
        with pytest.raises(TypeError, match="^not a Blaschke-type map: "):
            sm.is_identity(lambda z: z)
