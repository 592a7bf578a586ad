import cmath
import gc
import math
import weakref

import numpy as np
import pytest

from diskdyn import abel
from diskdyn import presets
from diskdyn.selfmap import HalfPlaneConjugate, compose

from walk_stub import opaque_kernel


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

    def test_iterate_refuses_what_the_orbit_refuses(self):
        # the base orbit passes |w| = 1e280 at index 931 and then overflows
        # to NaN; iterate refuses both points as orbit_point does
        hyper = abel.HalfPlaneMap(presets.example61(0.6))
        with pytest.raises(ArithmeticError) as far:
            hyper.iterate(1.0, 2000)
        with pytest.raises(ArithmeticError) as orbit_far:
            hyper.orbit_point(2000)
        assert str(far.value) == str(orbit_far.value)
        with pytest.raises(ArithmeticError) as horizon:
            hyper.iterate(1.0, 931)
        with pytest.raises(ArithmeticError) as orbit:
            hyper.orbit_point(931)
        assert str(horizon.value) == str(orbit.value)

    @pytest.mark.parametrize("w, index", [(1.0, 931), (1.5, 930)])
    def test_iterate_past_the_horizon_names_its_index(self, w, index):
        # an iterate that walked on past the horizon reported the NaN the
        # walk overflowed to, not the index where the orbit was refused
        hyper = abel.HalfPlaneMap(presets.example61(0.6))
        with pytest.raises(ArithmeticError) as far:
            hyper.iterate(w, 100000)
        with pytest.raises(ArithmeticError) as refused:
            abel._within_horizon(complex(1e300, 0.0), index)
        assert str(far.value) == str(refused.value)
        if w == 1.0:
            with pytest.raises(ArithmeticError) as orbit:
                hyper.orbit_point(100000)
            assert str(far.value) == str(orbit.value)

    @pytest.mark.parametrize("call", [
        lambda hpmap: hpmap.orbit_point(100000),
        lambda hpmap: hpmap.iterate(1.0, 100000),
    ], ids=["orbit_point", "iterate"])
    def test_a_walk_stops_within_a_chunk_of_the_horizon(self, call):
        hpmap = abel.HalfPlaneMap(presets.example61(0.6))
        kernel, walked = hpmap.walk, []

        def walk(orbit, count):
            start = len(orbit)
            error = kernel(orbit, count)
            walked.append(len(orbit) - start)
            return error

        hpmap.walk = walk
        with pytest.raises(ArithmeticError, match="horizon at index 931;"):
            call(hpmap)
        # the orbit is refused at index 931; at most one chunk of
        # _CHUNK_MAX points is walked past it
        assert sum(walked) < 931 + 2048

    def test_a_transported_map_is_freed(self):
        # the classification's Clark sums, kept per map object for its
        # conjugate, hold no stage: a product stage in them kept its own
        # weak key alive, and the benchmark's peak memory grew with its jobs
        enabled = gc.isenabled()
        gc.disable()
        try:
            for make in (presets.example62, lambda: compose(presets.example62(), presets.example61(0.6))):
                f = make()
                abel.HalfPlaneMap(f).max_feasible_index(10)
                gone = weakref.ref(f)
                del f
                assert gone() is None
        finally:
            if enabled:
                gc.enable()

    def test_max_feasible_index(self):
        hyper = abel.HalfPlaneMap(presets.example61(0.6))
        n = hyper.max_feasible_index(5000)
        assert 100 < n < 500
        assert abs(hyper.orbit_point(n)) <= 1e100

    def test_max_feasible_index_stops_where_the_orbit_fails(self):
        # the stub's base orbit passes Re w = 10 at w_9, so w_10 is not
        # a half-plane point
        hpmap = stub_map(10.0, math.inf)
        assert hpmap.max_feasible_index(100) == 9
        with pytest.raises(ArithmeticError, match="left the half-plane"):
            hpmap.orbit_point(10)

    def test_iterate_raises_the_walk_error(self):
        with pytest.raises(OverflowError, match="stub step refused"):
            stub_map(math.inf, 30.0).iterate(1.0 + 0.5j, 40)


INFINITE_POINTS = [complex(math.inf, 0.0), complex(1.0, math.inf), complex(1.0, -math.inf)]
NAN_POINTS = [complex(math.nan, 1.0), complex(1.0, math.nan)] + INFINITE_POINTS


class TestNanPoints:
    """A point with a NaN part is not a half-plane point
    (geometry.in_halfplane), and one with an infinite part is not taken
    either: each entry refuses both."""

    @pytest.mark.parametrize("w", NAN_POINTS)
    def test_entries_refuse_a_nan_part(self, w, translation_map):
        message = "half-plane point needed"
        with pytest.raises(ValueError, match=message):
            translation_map.iterate(w, 5)
        with pytest.raises(ValueError, match=message):
            abel.pommerenke_g(translation_map, w, 5)
        with pytest.raises(ValueError, match=message):
            abel.baker_pommerenke_h(translation_map, w, 5)
        with pytest.raises(ValueError, match=message):
            abel.extract_semiconjugacy(translation_map, 5, PROBE_RING[:8] + [w])
        with pytest.raises(ValueError, match=message):
            abel.residual_table(translation_map, "baker_pommerenke_h", (5, 10), [w, 1.5])

    @pytest.mark.parametrize("w", INFINITE_POINTS)
    def test_an_infinite_part_is_refused_not_stepped(self, w, parabolic_map):
        # stepped, (inf, 0) gave rows of NaN and (1, inf) an ArithmeticError
        # from the orbit, the class of a numerical failure
        message = "half-plane point needed"
        with pytest.raises(ValueError, match=message):
            abel.residual_table(parabolic_map, "baker_pommerenke_h", [1, 2], [w])
        with pytest.raises(ValueError, match=message):
            parabolic_map.iterate(w, 3)

    def test_base_orbit_with_a_nan_part_left_the_half_plane(self):
        hpmap = abel.HalfPlaneMap(presets.example62())
        hpmap.walk = opaque_kernel(lambda w: complex(1.0, math.nan))
        with pytest.raises(ArithmeticError, match="left the half-plane"):
            hpmap.orbit_point(1)

    def test_base_orbit_raises_the_walks_own_error(self):
        # the walk stops at an error of its step: the orbit keeps the points
        # before it and raises that error
        def step(w):
            if w.real > 3.5:
                raise ZeroDivisionError("stub step refused")
            return w + 1.0

        hpmap = abel.HalfPlaneMap(presets.example62())
        hpmap.walk = opaque_kernel(step)
        with pytest.raises(ZeroDivisionError, match="stub step refused"):
            hpmap.orbit_point(5)
        assert hpmap._orbit == [1, 2, 3, 4]
        assert hpmap.orbit_point(3) == 4


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

    def test_nan_residual_is_reported(self):
        # max(0.0, nan) is 0.0: a fold by max() reported a NaN step as exact
        nan = complex("nan")
        assert math.isnan(abel.abel_residual(abel.translation_abel, lambda w: nan, [1 + 1j, 2]))
        assert math.isnan(abel.abel_residual(
            abel.translation_abel, lambda w: nan if w == 2 else w - 1j, [1 + 1j, 2, 3]))

    @pytest.mark.parametrize("residuals, want", [
        ([], 0.0), ([0.0], 0.0), ([2.0, 1.0, 3.0, 0.5], 3.0),
        ([math.nan, 1.0], math.nan), ([1.0, math.nan], math.nan),
        ([1.0, math.nan, 2.0], math.nan), ([math.inf, math.nan], math.nan),
    ])
    def test_worst_residual_keeps_a_nan(self, residuals, want):
        got = abel.worst_residual(iter(residuals))
        assert got == want or (math.isnan(got) and math.isnan(want))

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

    @pytest.mark.parametrize("psi, fixed, parabolic", [
        # (2w + 1)/(w + 3): fixed points (-1 +- sqrt 5)/2
        ((2.0, 1.0, 1.0, 3.0), sorted([(-1 - 5 ** 0.5) / 2, (-1 + 5 ** 0.5) / 2]), False),
        # (3w - 1)/(w + 1): a double fixed point at 1
        ((3.0, -1.0, 1.0, 1.0), [1.0, 1.0], True),
    ])
    def test_fit_of_a_map_that_is_not_affine(self, psi, fixed, parabolic):
        a, b, c, d = psi
        fit = abel._fit_mobius([(w, (a * w + b) / (c * w + d)) for w in PROBE_RING])
        assert fit.parabolic is parabolic and fit.multiplier is None
        assert fit.residual < 1e-12
        assert sorted(z.real for z in fit.fixed_points) == pytest.approx(fixed, abs=1e-6)
        assert [z.imag for z in fit.fixed_points] == pytest.approx([0.0, 0.0], abs=1e-6)

    def test_one_trajectory_per_probe(self):
        n = 332
        hpmap = abel.HalfPlaneMap(presets.example61(0.6))
        hpmap.orbit_point(n)  # the base orbit is not what is counted
        pairs = [(abel.pommerenke_g(hpmap, w, n),
                  abel.pommerenke_g(hpmap, hpmap.apply(w), n)) for w in PROBE_RING]
        # transport steps: the points the kernel walks (apply is a walk of one)
        calls = []
        conj_walk = hpmap.walk

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

    def test_no_listed_n_gives_no_rows(self, parabolic_map):
        # as an empty probe list does
        for ns, probes in (([], PROBE_RING[:2]), ((5, 10), [])):
            assert abel.residual_table(parabolic_map, "baker_pommerenke_h", ns, probes) == []

    @pytest.mark.parametrize("kind", ["baker_pommerenke_h", "pommerenke_g"])
    def test_one_trajectory_per_probe(self, kind):
        hpmap = abel.HalfPlaneMap(presets.example62())
        hpmap.orbit_point(101)  # the base orbit is not what is counted
        # transport steps: the points the kernel walks (apply is a walk of one)
        calls = []
        conj_walk = hpmap.walk

        def walk(orbit, count):
            start = len(orbit)
            error = conj_walk(orbit, count)
            calls.extend(orbit[start:])
            return error

        hpmap.walk = walk
        abel.residual_table(hpmap, kind, (10, 50, 100), PROBE_RING[:3])
        assert len(calls) == 3 * (100 + 1)


def orbit_by_step(hpmap, n):
    """orbit_point as one apply call and one _within_horizon check per
    point, on hpmap's cached base orbit."""
    orbit = hpmap._orbit
    while len(orbit) <= n:
        orbit.append(abel._within_horizon(hpmap.apply(orbit[-1]), len(orbit)))
    return orbit[n]


def feasible_by_step(hpmap, n_limit):
    """max_feasible_index on orbit_by_step, one point at a time."""
    n = 0
    try:
        while n < n_limit and abs(orbit_by_step(hpmap, n + 1)) <= 1e100:
            n += 1
    except ArithmeticError:
        pass
    return n


def iterate_by_step(hpmap, w, n):
    """iterate as one apply call and one _within_horizon check per step."""
    w = abel._halfplane_point(w)
    for k in range(1, n + 1):
        w = abel._within_horizon(hpmap.apply(w), k)
    return w


def outcomes(call, hpmap, requests):
    """repr of each call's value (exact float bits) or its error's type and
    message, and the bits of the cached base orbit after them."""
    out = []
    for n in requests:
        try:
            out.append(repr(call(hpmap, n)))
        except Exception as exc:
            out.append((type(exc).__name__, str(exc)))
    return out, np.array(hpmap._orbit, dtype=complex).view(np.int64).tolist()


class TestBaseOrbitAgainstSteps:
    """orbit_point, max_feasible_index and iterate walk their orbits in the
    kernel in doubling chunks and check each chunk's new points in one
    pass.  They give the values, errors and cached points of the per-point
    loop."""

    MAPS = {
        # reaches n_limit
        "example62": lambda: abel.HalfPlaneMap(presets.example62()),
        # passes 1e100 near index 332 and the 1e280 horizon at index 931
        "example61": lambda: abel.HalfPlaneMap(presets.example61(0.6)),
        # leaves the half-plane at index 10
        "stub": lambda: stub_map(10.0, math.inf),
    }

    @pytest.mark.parametrize("name", MAPS)
    @pytest.mark.parametrize("requests", [
        (0, 3, 1, 9, 10, 11, 400, 931, 930, 2000, 932),
        (2000, 931, 12, 0),
    ])
    def test_orbit_point(self, name, requests):
        def walked(hpmap, n):
            return hpmap.orbit_point(n)

        want = outcomes(orbit_by_step, self.MAPS[name](), requests)
        assert outcomes(walked, self.MAPS[name](), requests) == want

    @pytest.mark.parametrize("name", MAPS)
    @pytest.mark.parametrize("limits", [(1000,), (5000, 40), (0, 9, 64, 65, 200)])
    def test_max_feasible_index(self, name, limits):
        def walked(hpmap, n_limit):
            return hpmap.max_feasible_index(n_limit)

        values, stepped = outcomes(feasible_by_step, self.MAPS[name](), limits)
        got, cached = outcomes(walked, self.MAPS[name](), limits)
        # the chunks walk on past the last point the loop reads
        assert got == values and cached[:len(stepped)] == stepped
        if name == "example62":
            assert values[0] == repr(limits[0])

    # the walk's chunks of 64 points, doubling to 2048, end at these
    # counts; the last two chunks are full-size
    CHUNK_ENDS = (64, 192, 448, 960, 1984, 4032, 6080)

    @pytest.mark.parametrize("name", MAPS)
    @pytest.mark.parametrize("w", [1.0, PROBE_RING[2]])
    def test_iterate(self, name, w):
        def walked(hpmap, n):
            return hpmap.iterate(w, n)

        def stepped(hpmap, n):
            return iterate_by_step(hpmap, w, n)

        ns = [end + d for end in self.CHUNK_ENDS for d in (-1, 0, 1)]
        want = outcomes(stepped, self.MAPS[name](), ns)
        assert outcomes(walked, self.MAPS[name](), ns) == want

    def test_the_walk_stops_at_the_chunk_that_passes_1e100(self):
        hpmap = abel.HalfPlaneMap(presets.example61(0.6))
        n = hpmap.max_feasible_index(10 ** 6)
        assert abs(hpmap.orbit_point(n)) <= 1e100 < abs(hpmap.orbit_point(n + 1))
        # chunks of 64, 128 and 256 points reach index 448
        assert len(hpmap._orbit) == 449


def table_by_step(hpmap, kind, ns, probes):
    """residual_table with one apply call per step of each probe."""
    scale = abel._scale_normalized(kind)
    wanted = set(ns)
    found = {}
    for pid, probe in enumerate(probes):
        w = hpmap.iterate(probe, 0)
        for n in range(max(ns) + 1):
            w_next = hpmap.apply(w)
            if n in wanted:
                val = abel._normalized(hpmap, kind, n, w)
                if scale:
                    res = abs(val - 1.0)
                else:
                    res = abs(abel._normalized(hpmap, kind, n, w_next) - val - 1.0)
                found[n, pid] = (val, res)
            w = w_next
    rows, prev_n = [], None
    for n in ns:
        for pid in range(len(probes)):
            val, res = found[n, pid]
            diff = float("nan") if prev_n is None else abs(val - found[prev_n, pid][0])
            rows.append((n, pid, res, diff))
        prev_n = n
    return rows


def stub_map(base_limit, probe_limit):
    """A HalfPlaneMap stepping w -> 1.01 (w + 1), apply and walk alike: past
    Re w = base_limit a real point leaves the half-plane (so the base orbit
    from 1 fails), past Re w = probe_limit a point above Im w = 0.3 raises."""
    def step(w):
        if w.imag > 0.3 and w.real > probe_limit:
            raise OverflowError(f"stub step refused {w!r}")
        if w.imag == 0 and w.real > base_limit:
            return -w
        return 1.01 * (w + 1.0)

    hpmap = abel.HalfPlaneMap(presets.example62())
    hpmap.walk = opaque_kernel(step)
    return hpmap


def table_outcome(table, limits, kind, ns, probes):
    """repr of the rows (exact float bits, nan included) on a fresh stub map,
    or the error's type and message."""
    try:
        return repr(table(stub_map(*limits), kind, ns, probes))
    except Exception as exc:
        return type(exc).__name__, str(exc)


class TestResidualTableAgainstSteps:
    """residual_table walks each probe in the kernel; it gives the rows, or
    raises the error, of one apply call per step."""

    @pytest.mark.parametrize("kind", ["baker_pommerenke_h", "pommerenke_g"])
    @pytest.mark.parametrize("limits, ns, expected", [
        ((math.inf, math.inf), (3, 8, 20, 40), None),
        ((math.inf, math.inf), (40, 3, 20, 8, 20), None),
        # the first probe rises above Im w = 0.3 and walks to w_25, the last
        # point before Re w = 30: n = 24 is the last n it can list
        ((math.inf, 30.0), (3, 8, 20, 40), "OverflowError"),
        ((math.inf, 30.0), (40, 3, 20, 8, 20), "OverflowError"),
        ((math.inf, 30.0), (3, 8, 24), None),
        ((math.inf, 30.0), (3, 8, 25), "OverflowError"),
        # the base orbit leaves the half-plane near index 10: n = 20 raises
        # that before n = 40 could raise the first probe's walk error
        ((10.0, 30.0), (3, 8, 20, 40), "ArithmeticError"),
        ((10.0, 30.0), (40, 3, 20, 8, 20), "ArithmeticError"),
    ])
    def test_same_rows_or_error(self, kind, limits, ns, expected):
        probes = PROBE_RING[1:5]
        want = table_outcome(table_by_step, limits, kind, ns, probes)
        assert table_outcome(abel.residual_table, limits, kind, ns, probes) == want
        assert isinstance(want, str) if expected is None else want[0] == expected

    def test_real_parabolic_map(self, parabolic_map):
        ns, probes = (1, 62, 125, 250, 500, 1000), PROBE_RING
        want = table_by_step(parabolic_map, "baker_pommerenke_h", ns, probes)
        got = abel.residual_table(parabolic_map, "baker_pommerenke_h", ns, probes)
        assert repr(got) == repr(want)
