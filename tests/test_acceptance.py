"""Runs every headline criterion at its stated tolerance, one line each."""

import cmath
import dataclasses
import math

import numpy as np
import pytest

from diskdyn import abel, acceptance, eigen, properties, selfmap
from diskdyn.geometry import DISK_MARGIN, UNIMODULAR_TOL, mobius_factor, pseudo_hyperbolic


@pytest.fixture(scope="module")
def results():
    return acceptance.run_all()


@pytest.mark.parametrize("index", range(1, 13))
def test_criterion(results, index, capsys):
    r = next(r for r in results if r.index == index)
    with capsys.disabled():
        mark = "PASS" if r.passed else "FAIL"
        print(f"\n[{mark}] criterion {r.index:2d}: {r.name} -- {r.detail}")
    assert r.passed, f"criterion {r.index} ({r.name}): {r.detail}"


def test_all_pass(results):
    assert all(r.passed for r in results)


def test_tampered_tolerance_fails_by_name(monkeypatch):
    monkeypatch.setitem(acceptance.DEFAULT_TOLERANCES, "tau_gap", 1e-12)
    tightened = acceptance.run_all()
    failed = [r for r in tightened if not r.passed]
    assert [r.index for r in failed] == [6]
    assert "tau" in failed[0].detail


def test_eigenpair_criterion_builds_one_grand_orbit(monkeypatch):
    # depths 4 and 6 are prefixes of the depth-8 grand orbit
    calls = []
    real = acceptance.orbits.grand_orbit

    def counted(*args, **kwargs):
        calls.append(kwargs["backward_depth"])
        return real(*args, **kwargs)

    monkeypatch.setattr(acceptance.orbits, "grand_orbit", counted)
    r = acceptance.criterion_6_eigenpair(acceptance.DEFAULT_TOLERANCES)
    assert r.passed
    assert calls == [8]


def test_eigenpair_criterion_evaluates_its_candidate_once_per_point(monkeypatch):
    # every depth's values come from the depth-8 product's factors at the 16
    # samples and their 16 images, and the square trick reads the same
    # values; only B(0) and the 25 real-axis points evaluate it on their
    # own.  A product per depth, and the square trick's own evaluations,
    # read {208: 32, 832: 32, 3328: 90} evaluations
    calls = {}

    def counting(kind, real):
        def counted(f, z):
            if len(f.zeros) > selfmap._SCALAR_MAX_ZEROS:
                key = (kind, len(f.zeros))
                calls[key] = calls.get(key, 0) + 1
            return real(f, z)
        return counted

    monkeypatch.setattr(selfmap, "_eval_fbp", counting("evaluate", selfmap._eval_fbp))
    monkeypatch.setattr(eigen, "_factor_vector", counting("factors", eigen._factor_vector))
    r = acceptance.criterion_6_eigenpair(acceptance.DEFAULT_TOLERANCES)
    assert r.passed
    assert calls == {("factors", 3328): 32, ("evaluate", 3328): 26}


def test_a_nan_distance_fails_criterion_3(monkeypatch):
    real, calls = acceptance.pseudo_hyperbolic, []

    def nan_at_call_50(z, w):
        calls.append((z, w))
        return math.nan if len(calls) == 50 else real(z, w)

    monkeypatch.setattr(acceptance, "pseudo_hyperbolic", nan_at_call_50)
    r = acceptance.criterion_3_step_closed_form(acceptance.DEFAULT_TOLERANCES)
    assert not r.passed
    assert r.detail == "worst |direct - closed| = nan over n <= 100"


def test_a_nan_counting_value_fails_criterion_12(monkeypatch):
    real = acceptance.counting.nevanlinna

    def nan_for_the_identity(f, w):
        sample = real(f, w)
        if selfmap.is_identity(f) and w == 0.37:
            return dataclasses.replace(sample, value=math.nan)
        return sample

    monkeypatch.setattr(acceptance.counting, "nevanlinna", nan_for_the_identity)
    r = acceptance.criterion_12_nevanlinna(acceptance.DEFAULT_TOLERANCES)
    assert not r.passed
    assert "closed-form worst=nan" in r.detail


def scalar_product(rng, max_degree=4):
    """(gamma, zeros) of a random product, degree 1 to max_degree with simple
    zeros within 0.85, drawn with an rng.integers call and then an
    rng.random() call per value."""
    d = int(rng.integers(1, max_degree + 1))
    zeros = []
    for _ in range(d):
        r = 0.85 * math.sqrt(rng.random())
        phi = 2.0 * math.pi * rng.random()
        zeros.append(r * cmath.exp(1j * phi))
    gamma = cmath.exp(2j * math.pi * rng.random())
    return gamma, zeros


def scalar_blaschke(rng, max_degree=4):
    return selfmap.FiniteBlaschkeProduct(*scalar_product(rng, max_degree))


def scalar_disk_point(rng, radius=0.95):
    return radius * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())


def scalar_invariance(a, z, w):
    return abs(pseudo_hyperbolic(mobius_factor(a, z), mobius_factor(a, w)) - pseudo_hyperbolic(z, w))


def reference_criterion_10(tol):
    """Criterion 10 as a loop over products, one generator call per value
    drawn and one preimages or evaluate call at a time: the definition the
    stacked criterion reproduces.  Every draw is checked, and each worst
    case folds by abel.worst_residual.  Returns (passed, detail), the
    contraction, back-evaluation, modulus and invariance maxima, and the
    generator's state after each of the five sections."""
    rng = np.random.default_rng(987654321)
    failures, states = [], []

    gaps = []
    for _ in range(properties.PROPERTY_CASES):
        f = scalar_blaschke(rng)
        z, w = scalar_disk_point(rng), scalar_disk_point(rng)
        lhs = pseudo_hyperbolic(selfmap.evaluate(f, z), selfmap.evaluate(f, w))
        gaps.append(lhs - pseudo_hyperbolic(z, w))
    worst_sp = abel.worst_residual(gaps)
    if not worst_sp <= tol["schwarz_pick"]:
        failures.append(f"contraction violated by {worst_sp:.2e}")
    states.append(rng.bit_generator.state)

    back, mismatches = [], []
    for _ in range(properties.PROPERTY_CASES):
        f = scalar_blaschke(rng)
        w = scalar_disk_point(rng, 0.8)
        fiber = selfmap.preimages(f, w)
        if sum(m for _, m in fiber) != f.degree:
            mismatches.append(f"fiber count mismatch for degree {f.degree}")
        back += [abs(selfmap.evaluate(f, z) - w) for z, _ in fiber]
    failures += mismatches[:1]
    worst_back = abel.worst_residual(back)
    if not worst_back <= tol["preimage_back_eval"]:
        failures.append(f"fiber back-evaluation off by {worst_back:.2e}")
    states.append(rng.bit_generator.state)

    mismatches = []
    for _ in range(200):
        f = scalar_blaschke(rng, 3)
        g = scalar_blaschke(rng, 3)
        w = scalar_disk_point(rng, 0.8)
        fiber = selfmap.preimages(selfmap.compose(f, g), w)
        if sum(m for _, m in fiber) != f.degree * g.degree:
            mismatches.append("composite fiber count != degree product")
    failures += mismatches[:1]
    states.append(rng.bit_generator.state)

    circle = np.exp(2j * math.pi * np.arange(256) / 256)
    moduli = []
    for _ in range(properties.PROPERTY_CASES // 4):
        f = scalar_blaschke(rng)
        moduli += [abs(abs(selfmap.evaluate(f, zc)) - 1.0) for zc in circle[::4]]
    worst_mod = abel.worst_residual(moduli)
    if not worst_mod <= tol["boundary_modulus"]:
        failures.append(f"boundary modulus off by {worst_mod:.2e}")
    states.append(rng.bit_generator.state)

    invariance = []
    for _ in range(properties.PROPERTY_CASES):
        a = scalar_disk_point(rng, 0.9)
        z, w = scalar_disk_point(rng), scalar_disk_point(rng)
        invariance.append(scalar_invariance(a, z, w))
    worst_mi = abel.worst_residual(invariance)
    if not worst_mi <= tol["mobius_invariance"]:
        failures.append(f"distance invariance off by {worst_mi:.2e}")
    states.append(rng.bit_generator.state)

    ok = not failures
    detail = "all randomized invariants hold" if ok else "; ".join(failures)
    detail += (f" (contraction {worst_sp:.1e}, back-eval {worst_back:.1e}, "
               f"modulus {worst_mod:.1e}, invariance {worst_mi:.1e})")
    return (ok, detail), (worst_sp, worst_back, worst_mod, worst_mi), states


def stacked_sections():
    """The stacked criterion's sections in its order on one generator: the
    contraction, back-evaluation, modulus and invariance maxima, the
    mismatches, and the generator's state after each section."""
    rng = np.random.default_rng(987654321)
    states = []

    def section(run):
        out = run(rng)
        states.append(rng.bit_generator.state)
        return out

    worst_sp = section(properties._contraction_gap)
    worst_back, mismatch = section(properties._back_evaluation)
    composite = section(properties._composite_counts)
    worst_mod = section(properties._boundary_modulus)
    worst_mi = section(properties._mobius_invariance)
    return (worst_sp, worst_back, worst_mod, worst_mi), (mismatch, composite), states


def bit_pattern(values):
    return [float(v).hex() for v in values]


def complex_pattern(values):
    return [(float(z.real).hex(), float(z.imag).hex()) for z in values]


@pytest.mark.parametrize("max_degree", [3, 4])
def test_random_products_keep_the_scalar_draws(max_degree):
    # the products of test_oracle, test_fixed_points and test_selfmap
    rng, ref = np.random.default_rng(max_degree), np.random.default_rng(max_degree)
    for _ in range(300):
        gamma, zeros = properties._random_product(rng, max_degree)
        want_gamma, want_zeros = scalar_product(ref, max_degree)
        assert complex_pattern([gamma] + zeros) == complex_pattern([want_gamma] + want_zeros)
    assert rng.bit_generator.state == ref.bit_generator.state


def test_criterion_7_points_are_the_scalar_draws():
    rng, ref = np.random.default_rng(20240817), np.random.default_rng(20240817)
    want = []
    while len(want) < 1000:
        z = complex(ref.uniform(-1, 1), ref.uniform(-1, 1))
        if abs(z) < 0.97:
            want.append(z)
    assert complex_pattern(acceptance._square_samples(rng, 1000, 0.97)) == complex_pattern(want)


class TestStackedPropertySuites:
    """Criterion 10 solves and evaluates its products in lanes over product
    stacks; what it reports is the per-product loop's, bit for bit."""

    def assert_matches_reference(self, tol=acceptance.DEFAULT_TOLERANCES):
        (ok, detail), worst, states = reference_criterion_10(tol)
        r = acceptance.criterion_10_property_suites(dict(tol))
        assert (r.passed, r.detail) == (ok, detail)
        got, mismatches, got_states = stacked_sections()
        assert bit_pattern(got) == bit_pattern(worst)
        assert got_states == states
        return r, mismatches

    def test_result_is_the_loops(self):
        r, mismatches = self.assert_matches_reference()
        assert r.passed and mismatches == (None, None)
        assert r.detail.endswith("(contraction 1.8e-15, back-eval 9.0e-16, "
                                 "modulus 1.3e-15, invariance 5.6e-15)")

    def test_tightened_back_eval_tolerance_fails_alike(self):
        tol = dict(acceptance.DEFAULT_TOLERANCES, preimage_back_eval=1e-17)
        r, _ = self.assert_matches_reference(tol)
        assert not r.passed
        assert r.detail.startswith("fiber back-evaluation off by 9.04e-16")

    @staticmethod
    def singled_out(f, w):
        # the fiber section's stacks begin with degree 4, and its first
        # degree-4 product with |w| > 0.75 (draw 10) comes after its first
        # degree-2 product with Re w < -0.5 (draw 5)
        return (f.degree == 4 and abs(w) > 0.75) or (f.degree == 2 and w.real < -0.5)

    @staticmethod
    def scalar_fibers_only(monkeypatch, change):
        """Every fiber through _fiber, whose result change(f, w, fiber)
        replaces."""
        real = selfmap._fiber
        monkeypatch.setattr(selfmap, "_lane_fibers",
                            lambda f, w, roots: (roots, np.zeros(len(w), dtype=bool)))
        monkeypatch.setattr(selfmap, "_fiber",
                            lambda f, w, poly, roots: change(f, w, real(f, w, poly, roots)))

    def test_count_mismatch_fails_each_section_and_draws_on(self, monkeypatch):
        # a section with a mismatch still checks and draws every product, so
        # the generator ends where the untampered run leaves it
        untampered = stacked_sections()[2]

        def drop(f, w, fiber):
            return fiber[1:] if self.singled_out(f, w) else fiber

        self.scalar_fibers_only(monkeypatch, drop)
        r, mismatches = self.assert_matches_reference()
        assert mismatches == ("fiber count mismatch for degree 2",
                              "composite fiber count != degree product")
        assert r.detail.startswith("fiber count mismatch for degree 2; "
                                   "composite fiber count != degree product")
        assert stacked_sections()[2] == untampered

    def test_draws_meet_the_stacks_precondition(self, monkeypatch):
        # the stacks take the criterion's draws unchecked: each product a
        # unimodular gamma and 1 to 4 distinct nonzero zeros strictly inside
        # the disk (each Mobius factor's a is such a degree-1 product), and
        # each point evaluated in evaluate's closed disk
        products, points = [], []
        stack, values = properties._stack_products, properties._stacked_values
        monkeypatch.setattr(properties, "_stack_products",
                            lambda drawn: products.extend(drawn) or stack(drawn))
        monkeypatch.setattr(properties, "_stacked_values",
                            lambda *args: points.append(args[-1]) or values(*args))
        assert acceptance.criterion_10_property_suites(acceptance.DEFAULT_TOLERANCES).passed
        assert len(products) == 2650 + properties.PROPERTY_CASES and len(points) == 4
        for gamma, zeros in products:
            assert abs(abs(gamma) - 1.0) <= UNIMODULAR_TOL
            assert 1 <= len(zeros) <= 4 and len(set(zeros)) == len(zeros)
            assert all(0.0 < abs(a) < 1.0 - DISK_MARGIN for a in zeros)
        for z in points:
            assert (np.hypot(z.real, z.imag) <= 1.0 + 1e-12).all()

    def test_invariance_lanes_are_the_scalar_gaps(self, monkeypatch):
        real, gaps = properties._distance_change, []
        monkeypatch.setattr(properties, "_distance_change",
                            lambda *args: gaps.append(real(*args)) or gaps[-1])
        rng, ref = np.random.default_rng(5), np.random.default_rng(5)
        worst = properties._mobius_invariance(rng)
        want = [scalar_invariance(scalar_disk_point(ref, 0.9), scalar_disk_point(ref),
                                  scalar_disk_point(ref))
                for _ in range(properties.PROPERTY_CASES)]
        assert bit_pattern(np.abs(gaps[0])) == bit_pattern(want)
        assert worst == abel.worst_residual(want)
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_first_point_outside_raises_as_the_loop(self, monkeypatch):
        # draw 7's w put on the circle: its factor m_a(w) is not strictly
        # inside the disk either, and pseudo_hyperbolic validates it first
        real, points = properties._disk_point, []

        def on_the_circle(r, u, v):
            points.append(1.0 + 0j if len(points) == 3 * 7 + 2 else real(r, u, v))
            return points[-1]

        monkeypatch.setattr(properties, "_disk_point", on_the_circle)
        with pytest.raises(ValueError) as got:
            properties._mobius_invariance(np.random.default_rng(5))
        with pytest.raises(ValueError) as ref:
            for k in range(0, len(points), 3):
                scalar_invariance(*points[k:k + 3])
        assert str(got.value) == str(ref.value) and k == 3 * 7
        assert "(1+0j)" not in str(got.value)

    def test_a_nan_fails_the_invariance_section(self, monkeypatch):
        # one NaN gap, not the first, in the invariance section (the
        # suite's second _distance_change call)
        real, calls = properties._distance_change, []

        def nan_once(*args):
            gaps = real(*args)
            if calls:
                gaps[7] = math.nan
            calls.append(args)
            return gaps

        monkeypatch.setattr(properties, "_distance_change", nan_once)
        r = acceptance.criterion_10_property_suites(acceptance.DEFAULT_TOLERANCES)
        assert not r.passed
        assert r.detail.startswith("distance invariance off by nan")

    @pytest.mark.parametrize("call, failure", [(1, "fiber back-evaluation off by nan"),
                                                (2, "boundary modulus off by nan")])
    def test_a_nan_fails_its_section(self, monkeypatch, call, failure):
        # one NaN value, not the first, in the back-evaluation section (the
        # suite's second _stacked_values call) or the modulus section (its third)
        real, calls = properties._stacked_values, []

        def nan_once(*args):
            values = real(*args)
            if len(calls) == call:
                values[7, -1] = complex("nan")
            calls.append(args)
            return values

        monkeypatch.setattr(properties, "_stacked_values", nan_once)
        r = acceptance.criterion_10_property_suites(acceptance.DEFAULT_TOLERANCES)
        assert not r.passed
        assert r.detail.startswith(failure)

    def test_first_failed_fiber_is_raised(self, monkeypatch):
        def fail(f, w, fiber):
            if self.singled_out(f, w):
                raise selfmap.RootFindingError(f"degree {f.degree} refused over {w!r}", 0.0)
            return fiber

        self.scalar_fibers_only(monkeypatch, fail)
        with pytest.raises(selfmap.RootFindingError) as ref:
            reference_criterion_10(acceptance.DEFAULT_TOLERANCES)
        assert "degree 2 refused" in str(ref.value)
        with pytest.raises(selfmap.RootFindingError) as got:
            acceptance.criterion_10_property_suites(acceptance.DEFAULT_TOLERANCES)
        assert str(got.value) == str(ref.value)

    def test_failed_residual_is_raised(self, monkeypatch):
        # rows whose residual the lanes cannot certify go to _fiber, which
        # raises as preimages does
        monkeypatch.setattr(selfmap, "PREIMAGE_RESIDUAL_TOL", 3e-16)
        with pytest.raises(selfmap.RootFindingError) as ref:
            reference_criterion_10(acceptance.DEFAULT_TOLERANCES)
        with pytest.raises(selfmap.RootFindingError) as got:
            acceptance.criterion_10_property_suites(acceptance.DEFAULT_TOLERANCES)
        assert type(got.value) is type(ref.value) and str(got.value) == str(ref.value)

    def test_no_product_is_solved_or_evaluated_alone(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a product of criterion 10 went through the scalar API")

        for name in ("preimages", "evaluate"):
            monkeypatch.setattr(selfmap, name, refuse)
        assert acceptance.criterion_10_property_suites(acceptance.DEFAULT_TOLERANCES).passed
