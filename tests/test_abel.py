import cmath
import math

import pytest

from diskdyn import abel
from diskdyn import presets
from diskdyn.selfmap import HalfPlaneConjugate

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

    def test_is_the_transport_itself(self, parabolic_map):
        assert isinstance(parabolic_map, HalfPlaneConjugate)
        assert parabolic_map.omega == 1.0
        assert parabolic_map.to_halfplane(0.0) == parabolic_map.orbit_point(0)

    def test_negative_counts_rejected(self):
        hm = abel.HalfPlaneMap(presets.example62())
        hm.orbit_point(5)
        with pytest.raises(ValueError, match="nonnegative"):
            hm.orbit_point(-1)
        with pytest.raises(ValueError, match="nonnegative"):
            hm.iterate(2.0 + 1.0j, -3)
        with pytest.raises(ValueError, match="nonnegative"):
            abel.pommerenke_g(hm, 2.0, -1)

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

    def test_bare_conjugate_is_a_mapping(self, parabolic_map):
        h = abel.translation_abel
        bare = HalfPlaneConjugate(presets.translation())
        assert abel.abel_residual(h, bare, PROBE_RING) == 0.0
        assert abel.abel_residual(h, HalfPlaneConjugate(presets.example62()), PROBE_RING) \
            == abel.abel_residual(h, parabolic_map, PROBE_RING)


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

    def test_step_comes_from_the_classification(self, monkeypatch):
        from diskdyn import dynamics

        def no_orbit(*args):
            raise AssertionError("the step verdict walked an orbit")

        monkeypatch.setattr(dynamics, "_orbit_rho_sequence", no_orbit)
        assert abel.HalfPlaneMap(presets.example62()).step == "zero"
        hm = abel.HalfPlaneMap(presets.translation())
        assert hm.step == "positive"
        assert abel.extract_semiconjugacy(hm, 6, PROBE_RING).parabolic

    def test_degenerate_probes_refused(self, translation_map):
        with pytest.raises(ValueError, match="degenerate"):
            abel.extract_semiconjugacy(translation_map, 5, [2.0] * 10)

    def test_too_few_probes_refused(self, translation_map):
        with pytest.raises(ValueError, match="at least 8"):
            abel.extract_semiconjugacy(translation_map, 5, PROBE_RING[:5])

    def test_one_trajectory_per_probe(self):
        n = 332
        hpmap = abel.HalfPlaneMap(presets.example61(0.6))
        hpmap.orbit_point(n)  # the base orbit is not what is counted
        pairs = [(abel.pommerenke_g(hpmap, w, n),
                  abel.pommerenke_g(hpmap, hpmap.apply(w), n)) for w in PROBE_RING]
        # transport steps: apply calls plus the points the kernel walks
        calls = []
        conj_apply, conj_walk = hpmap.apply, hpmap.walk
        hpmap.apply = lambda w: calls.append(w) or conj_apply(w)

        def walk(orbit, count):
            start = len(orbit)
            error = conj_walk(orbit, count)
            calls.extend(orbit[start:])
            return error

        hpmap.walk = walk
        fit = abel.extract_semiconjugacy(hpmap, n, PROBE_RING)
        assert len(calls) == len(PROBE_RING) * (n + 1)
        assert fit.coefficients == abel._fit_mobius(pairs).coefficients


class TestResidualTable:
    def test_rows_and_diffs(self, parabolic_map):
        rows = abel.residual_table(parabolic_map, "baker_pommerenke_h",
                                   (50, 100), PROBE_RING[:3])
        assert len(rows) == 6
        ns = [r[0] for r in rows]
        assert ns == [50, 50, 50, 100, 100, 100]
        assert all(math.isnan(r[3]) for r in rows[:3])
        assert all(not math.isnan(r[3]) for r in rows[3:])

    def test_rows_follow_their_definition(self, parabolic_map):
        ns, probes = (3, 20, 50), PROBE_RING[:4]
        for kind, fn in (("baker_pommerenke_h", abel.baker_pommerenke_h),
                         ("pommerenke_g", abel.pommerenke_g)):
            rows = abel.residual_table(parabolic_map, kind, ns, probes)
            expected, prev = [], {}
            for n in ns:
                for pid, w in enumerate(probes):
                    val = fn(parabolic_map, w, n)
                    if kind == "pommerenke_g":
                        res = abs(val - 1.0)
                    else:
                        res = abs(fn(parabolic_map, parabolic_map.apply(w), n) - val - 1.0)
                    expected.append((n, pid, res, abs(val - prev[pid]) if pid in prev else None))
                    prev[pid] = val
            assert [r[:3] for r in rows] == [e[:3] for e in expected]
            for row, (*_, diff) in zip(rows, expected):
                assert math.isnan(row[3]) if diff is None else row[3] == diff

    def test_unknown_kind_rejected(self, parabolic_map):
        with pytest.raises(ValueError, match="bogus"):
            abel.residual_table(parabolic_map, "bogus", (5, 10), PROBE_RING[:2])
        with pytest.raises(ValueError, match="bogus"):
            abel.residual_table(parabolic_map, "bogus", (5,), [])
        with pytest.raises(ValueError, match="bogus"):
            abel._normalized(parabolic_map, "bogus", 5, 2.0 + 1.0j)

    @pytest.mark.parametrize("kind", ["baker_pommerenke_h", "pommerenke_g"])
    def test_one_trajectory_per_probe(self, kind):
        hpmap = abel.HalfPlaneMap(presets.example62())
        hpmap.orbit_point(101)  # the base orbit is not what is counted
        calls = []
        conj_apply = hpmap.apply
        hpmap.apply = lambda w: calls.append(w) or conj_apply(w)
        abel.residual_table(hpmap, kind, (10, 50, 100), PROBE_RING[:3])
        assert len(calls) == 3 * (100 + 1)
