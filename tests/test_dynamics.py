import cmath
import math

import numpy as np
import pytest

from diskdyn import dynamics as dyn
from diskdyn import presets
from diskdyn import selfmap as sm
from diskdyn.geometry import julia_quotient


def parabolic_closed_form(x):
    return (1 - x) ** 2 / (9 * x * x + 14 * x + 9)


class TestDenjoyWolff:
    @pytest.mark.parametrize("alpha", [0.4, 0.5, 0.75])
    def test_hyperbolic_family_attracts_to_one(self, alpha):
        cls = dyn.denjoy_wolff(presets.example61(alpha))
        assert cls.dw_point == pytest.approx(1.0, abs=1e-9)
        assert cls.kind == dyn.HYPERBOLIC

    def test_interior_fixed_point_of_callable(self):
        cls = dyn.denjoy_wolff(lambda z: z / 2)
        assert cls.kind == dyn.ELLIPTIC_INTERIOR
        assert cls.dw_point == 0
        assert cls.interior_derivative == pytest.approx(0.5, abs=1e-6)

    def test_parabolic_member(self):
        cls = dyn.denjoy_wolff(presets.example62())
        assert cls.kind == dyn.PARABOLIC
        assert cls.dw_point == 1.0

    def test_fast_contraction_still_lands_on_the_boundary(self):
        # a = 0.01: the orbit converges in a handful of steps, well before
        # a full direction window accumulates
        cls = dyn.denjoy_wolff(presets.example61(0.99))
        assert cls.kind == dyn.HYPERBOLIC
        assert cls.dw_point == pytest.approx(1.0, abs=1e-9)
        assert cls.angular_derivative == pytest.approx(2 * 0.01 / 1.99, abs=1e-6)

    def test_square_map_elliptic(self):
        cls = dyn.denjoy_wolff(presets.power_map(2))
        assert cls.kind == dyn.ELLIPTIC_INTERIOR
        assert cls.dw_point == 0

    def test_rotation_is_elliptic(self):
        rot = sm.FiniteBlaschkeProduct(cmath.exp(2.1j), ((0.0, 1),))
        cls = dyn.denjoy_wolff(rot)
        assert cls.kind == dyn.ELLIPTIC_INTERIOR
        assert abs(cls.dw_point) < 1e-12
        assert abs(cls.interior_derivative - cmath.exp(2.1j)) < 1e-12

    def test_hyperbolic_automorphism(self):
        # (z + 1/2)/(1 + z/2): fixed points at +-1, attracting at 1
        aut = sm.FiniteBlaschkeProduct(1.0, ((-0.5, 1),))
        cls = dyn.denjoy_wolff(aut)
        assert cls.kind == dyn.HYPERBOLIC
        assert cls.dw_point == pytest.approx(1.0, abs=1e-9)
        assert cls.angular_derivative == pytest.approx(1 / 3, abs=1e-6)

    def test_parabolic_automorphism(self):
        cls = dyn.denjoy_wolff(presets.translation())
        assert cls.kind == dyn.PARABOLIC
        assert cls.dw_point == 1.0
        assert cls.angular_derivative == pytest.approx(1.0, abs=1e-6)

    def test_identity_rejected(self):
        with pytest.raises(ValueError):
            dyn.denjoy_wolff(sm.identity_map())

    def test_elliptic_automorphism_with_offset_fixed_point(self):
        # rotation conjugated to fix p = 0.3: T(z) = (p - z)/(1 - p z) is an
        # involution, and f = T o (e^{i theta} .) o T fixes p without the
        # orbit from 0 converging
        p, theta = 0.3, 1.3
        t = lambda z: (p - z) / (1 - p * z)
        f_call = lambda z: t(cmath.exp(1j * theta) * t(z))
        zero = t(p * cmath.exp(-1j * theta))
        gamma = f_call(0) * abs(zero) / zero ** 2
        gamma /= abs(gamma)
        aut = sm.FiniteBlaschkeProduct(gamma, ((zero, 1),))
        for z in (0.0, 0.4j, -0.2):
            assert sm.evaluate(aut, z) == pytest.approx(f_call(z), abs=1e-14)
        cls = dyn.denjoy_wolff(aut)
        assert cls.kind == dyn.ELLIPTIC_INTERIOR
        assert cls.dw_point == pytest.approx(p, abs=1e-9)


class TestClassify:
    def test_hyperbolic_with_derivative(self):
        cls = dyn.classify(presets.example61(0.6))
        assert cls.kind == dyn.HYPERBOLIC
        assert cls.angular_derivative == pytest.approx(0.5, abs=1e-6)

    def test_parabolic_band(self):
        cls = dyn.classify(presets.example62())
        assert cls.kind == dyn.PARABOLIC
        assert abs(cls.angular_derivative - 1.0) < 1e-4

    def test_elliptic_interior_invariants(self):
        cls = dyn.classify(presets.power_map(2))
        assert abs(cls.dw_point) < 1
        assert cls.angular_derivative is None

    def test_each_map_object_is_classified_once(self, monkeypatch):
        from diskdyn import orbits

        calls = []
        original = dyn.denjoy_wolff

        def counting(f, *args, **kwargs):
            calls.append(f)
            return original(f, *args, **kwargs)

        monkeypatch.setattr(dyn, "denjoy_wolff", counting)
        f = presets.example61(0.5)
        for depth in (2, 3, 4):
            orbits.grand_orbit(f, 0.0, forward_n=4, backward_depth=depth)
        assert calls == [f]
        # an equal map written down again is a new object
        dyn.classify(presets.example61(0.5))
        assert len(calls) == 2
        # plain callables are classified on every call
        def half(z):
            return z / 2

        dyn.classify(half)
        dyn.classify(half)
        assert len(calls) == 4

    def test_boundary_refusal_names_the_operation(self):
        with pytest.raises(ValueError,
                           match="^orbit merging needs a boundary attracting point$"):
            dyn.orbit_merging(presets.power_map(2), 0.1, 0.2, n_max=10)


class TestHyperbolicStep:
    def test_zero_step_matches_closed_form_along_orbit(self):
        f = presets.example62()
        rep = dyn.hyperbolic_step(f, 0.0, n_max=10000)
        assert rep.verdict == "zero"
        z = 0.0
        for n in range(100):
            expected = parabolic_closed_form(z)
            assert rep.sequence[n] == pytest.approx(expected, abs=1e-12)
            z = sm.evaluate(f, z).real

    def test_hyperbolic_positive(self):
        rep = dyn.hyperbolic_step(presets.example61(0.6), 0.0, n_max=10000)
        assert rep.verdict == "positive"
        # hyperbolic tail limit (1 - a)/(1 + a) with a = 1/2
        assert rep.limit_estimate == pytest.approx(1 / 3, abs=1e-9)

    def test_translation_constant_sequence(self):
        rep = dyn.hyperbolic_step(presets.translation(), 0.0, n_max=10000)
        assert rep.verdict == "positive"
        # independent oracle: rho(w, w - i) = |i| / |w - i + conj(w)| at w = 1
        expected = 1.0 / abs(2.0 - 1.0j)
        assert rep.sequence[0] == pytest.approx(expected, abs=1e-15)
        assert float(rep.sequence.max() - rep.sequence.min()) == 0.0

    @pytest.mark.parametrize("z0", [0.0, 0.3j, -0.5])
    def test_base_point_independence(self, z0):
        assert dyn.hyperbolic_step(presets.example62(), z0, 10000).verdict == "zero"
        assert dyn.hyperbolic_step(presets.example61(0.6), z0, 10000).verdict == "positive"

    def test_sequence_non_increasing(self):
        for f in (presets.example61(0.5), presets.example62(), presets.translation()):
            rep = dyn.hyperbolic_step(f, 0.2j, n_max=3000)
            assert np.all(np.diff(rep.sequence) <= 1e-12)

    def test_elliptic_rejected(self):
        with pytest.raises(ValueError):
            dyn.hyperbolic_step(presets.power_map(2), 0.0, 100)

    def test_parabolic_maps_always_get_a_verdict(self):
        for f in (presets.example62(), presets.translation()):
            assert dyn.classify(f).kind == dyn.PARABOLIC
            rep = dyn.hyperbolic_step(f, 0.0, n_max=10000)
            assert rep.verdict in ("zero", "positive")

    def test_tangential_approach_statistic(self):
        tangential = dyn.hyperbolic_step(presets.translation(), 0.0, 2000)
        radial = dyn.hyperbolic_step(presets.example61(0.6), 0.0, 2000)
        # informational statistic: clearly tangential vs clearly radial
        assert abs(tangential.approach_angle) > 1.3
        assert abs(radial.approach_angle) < 0.01


class TestOrbitMerging:
    def test_equal_starts_vanish(self):
        seq = dyn.orbit_merging(presets.example62(), 0.2, 0.2, n_max=50)
        assert np.all(seq == 0)

    def test_zero_step_orbits_merge(self):
        seq = dyn.orbit_merging(presets.example62(), 0.0, 0.5j, n_max=2000)
        assert np.all(np.diff(seq) <= 1e-12)
        assert seq[-1] < 0.02

    def test_non_increasing_generic(self):
        seq = dyn.orbit_merging(presets.example61(0.5), 0.1, -0.3 + 0.2j, n_max=500)
        assert np.all(np.diff(seq) <= 1e-12)


class TestJuliaContainment:
    def test_example_containment(self):
        rep = dyn.julia_containment_check(presets.example61(0.5), 1.0,
                                          samples=500, seed=11)
        assert rep.passed
        assert rep.bound == pytest.approx(2 / 3, abs=1e-6)

    def test_identity_preserves_quotient(self):
        rep = dyn.julia_containment_check(sm.identity_map(), 1.0,
                                          samples=300, seed=2)
        assert rep.passed
        assert rep.max_ratio <= 1.0

    def test_parabolic_containment(self):
        rep = dyn.julia_containment_check(presets.example62(), 1.0,
                                          samples=400, seed=5)
        assert rep.passed

    def test_interior_map_rejected(self):
        with pytest.raises(ValueError):
            dyn.julia_containment_check(presets.power_map(2), 1.0)

    def test_bad_level_rejected(self):
        with pytest.raises(ValueError):
            dyn.julia_containment_check(presets.example62(), 0.0)


class TestPreimageHorodiskEscalation:
    def test_fibers_escape_successive_horodisks(self):
        f = presets.example61(0.5)
        a = 2 / 3
        level = [0.0 + 0.0j]
        for k in range(1, 4):
            nxt = []
            for p in level:
                nxt.extend(z for z, _ in sm.preimages(f, p))
            for z in nxt:
                assert julia_quotient(z, 1.0) > a ** (-k) * (1 - 1e-9)
            level = nxt
