"""Runs every headline criterion at its stated tolerance, one line each."""

import math

import numpy as np
import pytest

from diskdyn import acceptance, properties, selfmap
from diskdyn.geometry import mobius_factor, pseudo_hyperbolic


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


def test_tampered_tolerance_fails_by_name():
    tightened = acceptance.run_all(tolerances={"tau_gap": 1e-12})
    failed = [r for r in tightened if not r.passed]
    assert [r.index for r in failed] == [6]
    assert "tau" in failed[0].detail


def test_unknown_tolerance_rejected():
    with pytest.raises(ValueError, match="unknown tolerance"):
        acceptance.run_all(tolerances={"nope": 1})


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


def reference_criterion_10(tol):
    """Criterion 10 as a loop over products, one preimages or evaluate call
    at a time: the definition the stacked criterion reproduces.  Returns
    (passed, detail), the contraction, back-evaluation and modulus maxima,
    and the generator's state after the modulus section."""
    rng = np.random.default_rng(987654321)
    failures = []

    worst_sp = 0.0
    for _ in range(properties.PROPERTY_CASES):
        f = properties._random_blaschke(rng)
        z, w = properties._random_disk_point(rng), properties._random_disk_point(rng)
        lhs = pseudo_hyperbolic(selfmap.evaluate(f, z), selfmap.evaluate(f, w))
        worst_sp = max(worst_sp, lhs - pseudo_hyperbolic(z, w))
    if worst_sp > tol["schwarz_pick"]:
        failures.append(f"contraction violated by {worst_sp:.2e}")

    worst_back = 0.0
    for _ in range(properties.PROPERTY_CASES):
        f = properties._random_blaschke(rng)
        w = properties._random_disk_point(rng, 0.8)
        fiber = selfmap.preimages(f, w)
        if sum(m for _, m in fiber) != f.degree:
            failures.append(f"fiber count mismatch for degree {f.degree}")
            break
        worst_back = max(worst_back, max(abs(selfmap.evaluate(f, z) - w) for z, _ in fiber))
    if worst_back > tol["preimage_back_eval"]:
        failures.append(f"fiber back-evaluation off by {worst_back:.2e}")

    for _ in range(200):
        f = properties._random_blaschke(rng, 3)
        g = properties._random_blaschke(rng, 3)
        w = properties._random_disk_point(rng, 0.8)
        fiber = selfmap.preimages(selfmap.compose(f, g), w)
        if sum(m for _, m in fiber) != f.degree * g.degree:
            failures.append("composite fiber count != degree product")
            break

    circle = np.exp(2j * math.pi * np.arange(256) / 256)
    worst_mod = 0.0
    for _ in range(properties.PROPERTY_CASES // 4):
        f = properties._random_blaschke(rng)
        worst_mod = max(worst_mod, max(abs(abs(selfmap.evaluate(f, zc)) - 1.0)
                                       for zc in circle[::4]))
    if worst_mod > tol["boundary_modulus"]:
        failures.append(f"boundary modulus off by {worst_mod:.2e}")
    state = rng.bit_generator.state

    worst_mi = 0.0
    for _ in range(properties.PROPERTY_CASES):
        a = properties._random_disk_point(rng, 0.9)
        z, w = properties._random_disk_point(rng), properties._random_disk_point(rng)
        worst_mi = max(worst_mi, abs(pseudo_hyperbolic(mobius_factor(a, z), mobius_factor(a, w))
                                     - pseudo_hyperbolic(z, w)))
    if worst_mi > tol["mobius_invariance"]:
        failures.append(f"distance invariance off by {worst_mi:.2e}")

    ok = not failures
    detail = "all randomized invariants hold" if ok else "; ".join(failures)
    detail += (f" (contraction {worst_sp:.1e}, back-eval {worst_back:.1e}, "
               f"modulus {worst_mod:.1e}, invariance {worst_mi:.1e})")
    return (ok, detail), (worst_sp, worst_back, worst_mod), state


def stacked_sections():
    """The stacked criterion's sections in its order on one generator: the
    contraction, back-evaluation and modulus maxima, the mismatches, and the
    generator's state after the modulus section."""
    rng = np.random.default_rng(987654321)
    worst_sp = properties._contraction_gap(rng)
    worst_back, mismatch = properties._back_evaluation(rng)
    composite = properties._composite_counts(rng)
    worst_mod = properties._boundary_modulus(rng)
    return (worst_sp, worst_back, worst_mod), (mismatch, composite), rng.bit_generator.state


def bit_pattern(values):
    return [float(v).hex() for v in values]


class TestStackedPropertySuites:
    """Criterion 10 solves and evaluates its products in lanes over product
    stacks; what it reports is the per-product loop's, bit for bit."""

    def assert_matches_reference(self, tol=acceptance.DEFAULT_TOLERANCES):
        (ok, detail), worst, state = reference_criterion_10(tol)
        r = acceptance.criterion_10_property_suites(dict(tol))
        assert (r.passed, r.detail) == (ok, detail)
        got, mismatches, got_state = stacked_sections()
        assert bit_pattern(got) == bit_pattern(worst)
        assert got_state == state
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
        monkeypatch.setattr(selfmap, "_lane_fibers", lambda f, w, roots: [None] * len(w))
        monkeypatch.setattr(selfmap, "_fiber",
                            lambda f, w, poly, roots: change(f, w, real(f, w, poly, roots)))

    def test_first_count_mismatch_stops_each_section(self, monkeypatch):
        def drop(f, w, fiber):
            return fiber[1:] if self.singled_out(f, w) else fiber

        self.scalar_fibers_only(monkeypatch, drop)
        r, mismatches = self.assert_matches_reference()
        assert mismatches == ("fiber count mismatch for degree 2",
                              "composite fiber count != degree product")
        assert r.detail.startswith("fiber count mismatch for degree 2; "
                                   "composite fiber count != degree product")

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
