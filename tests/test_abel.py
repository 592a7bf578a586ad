import cmath
import math

import pytest

from diskdyn import abel
from diskdyn import presets

PROBE_RING = [1.0 + 0.5 * cmath.exp(2j * math.pi * k / 10) for k in range(10)]


@pytest.fixture(scope="module")
def parabolic_map():
    return abel.HalfPlaneMap(presets.example62())


@pytest.fixture(scope="module")
def translation_map():
    return abel.HalfPlaneMap(presets.translation())


class TestHalfPlaneMap:
    def test_rejects_elliptic(self):
        with pytest.raises(ValueError):
            abel.HalfPlaneMap(presets.power_map(2))

    def test_base_orbit_starts_at_one(self, parabolic_map):
        assert parabolic_map.orbit_point(0) == 1.0
        assert parabolic_map.orbit_point(1) == pytest.approx(1.25, abs=1e-14)

    def test_transport_matches_disk_map(self, parabolic_map):
        from diskdyn.geometry import cayley_from_rhp, cayley_to_rhp
        from diskdyn.selfmap import evaluate

        w = 2.0 + 1.0j
        z = cayley_from_rhp(w)
        expected = cayley_to_rhp(evaluate(presets.example62(), z))
        assert parabolic_map.apply(w) == pytest.approx(expected, rel=1e-12)

    def test_iterate_reuses_a_deep_orbit_point_exactly(self, parabolic_map):
        k, n = 300, 7
        w = parabolic_map.orbit_point(k)
        assert parabolic_map.iterate(w, n) == parabolic_map.orbit_point(k + n)

    def test_orbit_horizon_error(self):
        hyper = abel.HalfPlaneMap(presets.example61(0.6))
        with pytest.raises(ArithmeticError):
            hyper.orbit_point(5000)

    def test_max_feasible_index(self):
        hyper = abel.HalfPlaneMap(presets.example61(0.6))
        n = hyper.max_feasible_index(5000)
        assert 100 < n < 500
        assert abs(hyper.orbit_point(n)) <= 1e100


class TestAnchors:
    @pytest.mark.parametrize("n", [1, 10, 50, 200])
    def test_scale_normalized_anchor(self, parabolic_map, n):
        assert abel.pommerenke_g(parabolic_map, 1.0, n) == 1.0

    @pytest.mark.parametrize("n", [1, 10, 50, 200])
    def test_step_normalized_anchors(self, parabolic_map, n):
        assert abel.baker_pommerenke_h(parabolic_map, 1.0, n) == 0.0
        z1 = parabolic_map.orbit_point(1)
        assert abel.baker_pommerenke_h(parabolic_map, z1, n) == 1.0


class TestPommerenkeG:
    def test_translation_is_the_identity(self, translation_map):
        for n in (1, 5, 40):
            for w in (1.0, 2.0 + 1.0j, 0.5 - 0.3j):
                assert abel.pommerenke_g(translation_map, w, n) == pytest.approx(
                    w, abs=1e-12
                )

    def test_zero_step_degeneration_to_constant(self, parabolic_map):
        # decay level frozen from a direct evaluation out to n = 1000:
        # |g_n(2+i) - 1| was 2.1e-2 at n = 200 and 4.3e-3 at n = 1000
        gaps = [abs(abel.pommerenke_g(parabolic_map, 2.0 + 1.0j, n) - 1.0)
                for n in (50, 100, 200, 400, 1000)]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[2] < 3e-2
        assert gaps[-1] < 1e-2

    def test_positive_step_stays_away_from_constant(self, translation_map):
        gap = max(abs(abel.pommerenke_g(translation_map, w, 50) - 1.0)
                  for w in PROBE_RING)
        assert gap > 0.1

    def test_locally_uniform_convergence_proxy(self, parabolic_map):
        diffs = []
        for n in (50, 100, 200):
            diffs.append(max(
                abs(abel.pommerenke_g(parabolic_map, w, n + 1)
                    - abel.pommerenke_g(parabolic_map, w, n))
                for w in PROBE_RING
            ))
        assert diffs[0] > diffs[1] > diffs[2]


class TestBakerPommerenkeH:
    def test_residual_level_and_decay(self, parabolic_map):
        res = {}
        for n in (50, 100, 200, 400):
            res[n] = abel.abel_residual(
                lambda w, n=n: abel.baker_pommerenke_h(parabolic_map, w, n),
                parabolic_map, PROBE_RING,
            )
        assert res[50] >= res[100] >= res[200] >= res[400]
        assert res[200] < 1e-2

    def test_stationary_orbit_rejected(self, parabolic_map):
        class Stationary:
            def orbit_point(self, n):
                return 2.0 + 0.0j

            def iterate(self, w, n):
                return w

        with pytest.raises(ArithmeticError, match="stationary"):
            abel.baker_pommerenke_h(Stationary(), 1.5, 10)


class TestAbelResidual:
    def test_exact_unit_translation(self):
        assert abel.abel_residual(lambda w: w, lambda w: w + 1.0, PROBE_RING) < 1e-15

    def test_exact_upward_translation(self):
        # h(w) = -i w linearizes w -> w + i: -i(w + i) = -i w + 1
        assert abel.abel_residual(lambda w: -1j * w, lambda w: w + 1j, PROBE_RING) < 1e-15

    def test_exact_preset_linearizer(self, translation_map):
        assert abel.abel_residual(abel.translation_abel, translation_map, PROBE_RING) == 0.0


class TestSemiconjugacy:
    def test_translation_recovers_the_translation(self, translation_map):
        fit = abel.extract_semiconjugacy(translation_map, 6, PROBE_RING)
        assert fit.parabolic
        assert fit.multiplier == pytest.approx(1.0, abs=1e-9)
        assert fit.residual < 1e-12
        for w in (1.0, 2.0 + 1.0j):
            assert fit(w) == pytest.approx(w - 1j, abs=1e-9)

    def test_zero_step_refused(self, parabolic_map):
        with pytest.raises(ValueError, match="zero-step"):
            abel.extract_semiconjugacy(parabolic_map, 10, PROBE_RING)

    def test_degenerate_probes_refused(self, translation_map):
        with pytest.raises(ValueError, match="degenerate"):
            abel.extract_semiconjugacy(translation_map, 5, [2.0] * 10)

    def test_too_few_probes_refused(self, translation_map):
        with pytest.raises(ValueError, match="at least 8"):
            abel.extract_semiconjugacy(translation_map, 5, PROBE_RING[:5])


class TestResidualTable:
    def test_rows_and_diffs(self, parabolic_map):
        rows = abel.residual_table(parabolic_map, "baker_pommerenke_h",
                                   (50, 100), PROBE_RING[:3])
        assert len(rows) == 6
        ns = [r[0] for r in rows]
        assert ns == [50, 50, 50, 100, 100, 100]
        assert all(math.isnan(r[3]) for r in rows[:3])
        assert all(not math.isnan(r[3]) for r in rows[3:])
