import cmath
import json
import math

import numpy as np
import pytest

from diskdyn import eigen, lanes
from diskdyn import orbits as ob
from diskdyn import presets
from diskdyn import selfmap as sm
from diskdyn.geometry import ensure_disk_point, mobius_factor, pseudo_hyperbolic
from test_orbits import truncation_from_nodes

SAMPLES = eigen.ring_samples(0.4, 16)


def admissible(points, zeros) -> list[bool]:
    """Whether each point lies more than ADMISSIBLE_RADIUS from every zero,
    by the radius search estimate_tau makes."""
    z, a = np.array(points, dtype=complex), np.array(zeros, dtype=complex)
    near, _ = ob._same_pairs(z.real, z.imag, a.real, a.imag, radius=eigen.ADMISSIBLE_RADIUS)
    ok = np.ones(len(z), dtype=bool)
    ok[near] = False
    return ok.tolist()


def reference_admissible(z, zeros) -> bool:
    """The point-by-point admissibility test estimate_tau once made: a
    Euclidean prefilter at twice the radius, then the lane distance to each
    zero it keeps."""
    z = ensure_disk_point(z)
    a = np.array(zeros, dtype=complex)
    ar, ai = a.real, a.imag
    dr, di = ar - z.real, ai - z.imag
    near = dr * dr + di * di <= (2.0 * eigen.ADMISSIBLE_RADIUS) ** 2 * (1.0 + 1e-9)
    if not near.any():
        return True
    rho = lanes.pseudo_hyperbolic(z.real, z.imag, ar[near], ai[near])
    return bool((rho > eigen.ADMISSIBLE_RADIUS).all())


def exact(value):
    """A float's or complex's bits."""
    return np.array(value).tobytes()


def nan_at_one_sample(z):
    """A candidate that is 1 but NaN at the fourth sample."""
    return complex("nan") if z == SAMPLES[3] else 1.0


@pytest.fixture(scope="module")
def truncations():
    f = presets.example61(0.5)
    return {
        d: ob.grand_orbit(f, 0.0, forward_n=12, backward_depth=d)
        for d in (4, 6, 8)
    }


@pytest.fixture(scope="module")
def deep_b(truncations):
    return eigen.build_truncated_eigenfunction(truncations[8])


class TestBuild:
    def test_zero_multiset_matches_nodes(self, truncations, deep_b):
        tr = truncations[8]
        assert deep_b.zeros == tuple(
            (n.point, n.multiplicity) for n in tr.nodes
        )
        assert deep_b.gamma == 1.0

    def test_vanishes_at_origin(self, deep_b):
        assert deep_b(0.0) == 0.0

    def test_real_on_the_real_axis(self, deep_b):
        for x in np.linspace(-0.9, 0.9, 19):
            assert abs(deep_b(complex(x)).imag) < 1e-10

    def test_singleton_truncation_is_a_single_factor(self):
        a = 0.3 - 0.2j
        node = ob.GrandOrbitNode(a, 1, 0, 0)
        tr = truncation_from_nodes(a, 0, 0, (node,), (1 - abs(a),), False)
        b = eigen.build_truncated_eigenfunction(tr)
        for z in (0.0, 0.5, -0.1 + 0.4j):
            assert b(z) == pytest.approx(mobius_factor(a, z), abs=1e-15)

    def test_empty_truncation_rejected(self):
        tr = truncation_from_nodes(0.0, 0, 0, (), (0.0,), False)
        with pytest.raises(ValueError):
            eigen.build_truncated_eigenfunction(tr)


class TestEstimateTau:
    def test_deep_truncation_estimates_minus_one(self, deep_b):
        est = eigen.estimate_tau(deep_b, presets.example61(0.5), SAMPLES)
        assert abs(est.tau - (-1.0)) < 0.1
        assert est.sample_count >= 8

    def test_unimodularity_trend(self, truncations):
        f = presets.example61(0.5)
        gaps = []
        for d in (4, 6, 8):
            b = eigen.build_truncated_eigenfunction(truncations[d])
            est = eigen.estimate_tau(b, f, SAMPLES)
            gaps.append(abs(abs(est.tau) - 1.0))
        assert gaps[0] > gaps[1] > gaps[2]

    def test_exact_eigenfunction_recovered(self):
        t = presets.translation()
        u = eigen.SingularEigenfunction(1.0, eigen.translation_abel_disk)
        est = eigen.estimate_tau(u, t, SAMPLES)
        assert abs(est.tau - cmath.exp(1j)) < 1e-10
        assert est.dispersion < 1e-12

    def test_identity_map_gives_one(self, deep_b):
        est = eigen.estimate_tau(deep_b, sm.identity_map(), SAMPLES)
        assert abs(est.tau - 1.0) < 1e-15
        assert est.dispersion < 1e-15

    def test_inadmissible_samples_rejected(self, deep_b):
        zeros = [z for z, _ in deep_b.zeros[:10]]
        with pytest.raises(ValueError, match="sample ring"):
            eigen.estimate_tau(deep_b, presets.example61(0.5), zeros)

    def test_array_admissibility_is_the_scalar_rule(self, deep_b):
        f = presets.example61(0.5)
        zeros = [a for a, _ in deep_b.zeros]
        on_zero = zeros[40]
        # a preimage of a node outside the truncation's zero set
        (image_on_zero, _), *_ = sm.preimages(f, zeros[-1])
        assert abs(sm.evaluate(f, image_on_zero) - zeros[-1]) < 1e-12
        rng = np.random.default_rng(3)
        samples = SAMPLES + [on_zero, image_on_zero, zeros[-1] + 0.03, 0.0] + [
            complex(*rng.uniform(-0.6, 0.6, 2)) for _ in range(200)
        ]
        images = [sm.evaluate(f, z) for z in samples]
        searched = admissible(samples + images, zeros)
        for point, got in zip(samples + images, searched):
            scalar = all(pseudo_hyperbolic(point, a) > eigen.ADMISSIBLE_RADIUS
                         for a in zeros)
            assert got == scalar
            assert reference_admissible(point, zeros) == scalar
        kept = sum(s and i for s, i in zip(searched[:len(samples)], searched[len(samples):]))
        assert admissible([on_zero, sm.evaluate(f, image_on_zero)], zeros) == [False, False]
        assert 0 < kept < len(samples)

    def test_estimate_tau_tests_every_zero_exactly(self, deep_b, monkeypatch):
        seen = []
        search = eigen._same_pairs

        def record(zr, zi, pr, pi, stop=None, radius=None):
            seen.append((zr, zi, pr, pi, stop, radius))
            return search(zr, zi, pr, pi, stop, radius)

        monkeypatch.setattr(eigen, "_same_pairs", record)
        f = presets.example61(0.5)
        eigen.estimate_tau(deep_b, f, SAMPLES)
        want = np.array([(a.real, a.imag) for a, _ in deep_b.zeros])
        # one search per estimate: the samples, then their images, against
        # every zero
        points = np.array(SAMPLES + [sm.evaluate(f, z) for z in SAMPLES])
        [(zr, zi, pr, pi, stop, radius)] = seen
        assert stop is None and radius == eigen.ADMISSIBLE_RADIUS
        assert np.array_equal(np.column_stack([pr, pi]).view(np.int64), want.view(np.int64))
        assert zr.tobytes() == points.real.tobytes() and zi.tobytes() == points.imag.tobytes()

    def test_admissibility_at_the_radius_is_the_scalar_rule(self, truncations):
        # points a few ulps off the 0.05 circle around a zero, and preimages
        # of such points, whose images land within a few ulps of it
        f = presets.example61(0.5)
        zeros = [n.point for n in truncations[4].nodes]
        arr = np.array(zeros)
        circle = []
        for a in zeros[::40]:
            for k in range(24):
                t = eigen.ADMISSIBLE_RADIUS * cmath.exp(2j * math.pi * k / 24)
                z = (a + t) / (1.0 + a.conjugate() * t)
                circle += [complex(z.real + dx * math.ulp(z.real), z.imag + dy * math.ulp(z.imag))
                           for dx in (-2, 0, 2) for dy in (-2, 0, 2)]
        images = [sm.evaluate(f, z) for p in circle[::9] for z, _ in sm.preimages(f, p)]
        searched = admissible(circle + images, zeros)
        numpy_rule = 0
        for point, got in zip(circle + images, searched):
            scalar = all(pseudo_hyperbolic(point, a) > eigen.ADMISSIBLE_RADIUS for a in zeros)
            assert got == scalar
            assert reference_admissible(point, zeros) == scalar
            rho = np.abs((arr - point) / (1.0 - arr.conj() * point))
            numpy_rule += bool((rho > eigen.ADMISSIBLE_RADIUS).all()) != scalar
        assert 0 < sum(searched) < len(searched)
        # the numpy complex quotient with np.abs decides some differently
        assert numpy_rule > 0

    @pytest.mark.parametrize("alpha, kept", [(0.5, 15), (0.6, 15), (0.7, 16)])
    def test_estimate_is_the_point_by_point_rule(self, alpha, kept):
        # the estimate as each sample and image was once tested on its own
        # (reference_admissible), bit for bit, at every depth of an eigen job
        f = presets.example61(alpha)
        deepest = ob.grand_orbit(f, 0.0, forward_n=12, backward_depth=8)
        for depth in range(2, 9):
            b = eigen.build_truncated_eigenfunction(deepest.prefix(depth))
            values = eigen.sample_values(b, f, SAMPLES)
            zeros = [a for a, _ in b.zeros]
            ratios = [bfz / bz for z, (fz, bz, bfz) in zip(SAMPLES, values)
                      if reference_admissible(z, zeros) and reference_admissible(fz, zeros)
                      and bz != 0]
            got = eigen.estimate_tau(b, f, SAMPLES, values)
            tau = eigen._geometric_median(ratios)
            assert got.sample_count == len(ratios) == kept
            assert exact(got.tau) == exact(tau)
            assert exact(got.dispersion) == exact(max(abs(r - tau) for r in ratios))

    def test_sample_outside_the_disk_rejected(self, deep_b):
        with pytest.raises(ValueError, match="not strictly inside"):
            eigen.estimate_tau(deep_b, presets.example61(0.5), SAMPLES + [1.0])


@pytest.mark.parametrize("points, median", [([0, 0, 0, 1, 1j], 0j),
                                            ([1, 1, 1, 1, 2, 3j], 1 + 0j)])
def test_geometric_median_stays_at_a_repeated_sample(points, median):
    # a sample x is the median when the other samples' pull,
    # |sum (p - x) / |p - x||, is at most the number of samples at x
    # (sqrt(2) against 3, and 1.17 against 4, here)
    assert eigen._geometric_median([complex(p) for p in points]) == median


class TestEigenResidual:
    def test_exact_pair_is_tiny(self):
        t = presets.translation()
        theta = math.pi / 3
        u = eigen.SingularEigenfunction(theta, eigen.translation_abel_disk)
        res = eigen.eigen_residual(u, t, cmath.exp(1j * theta), SAMPLES)
        assert res < 1e-10

    def test_residual_decreases_with_depth(self, truncations):
        f = presets.example61(0.5)
        res = [
            eigen.eigen_residual(
                eigen.build_truncated_eigenfunction(truncations[d]), f, -1.0, SAMPLES
            )
            for d in (4, 6, 8)
        ]
        assert res[0] > res[1] > res[2]

    def test_constant_candidate_with_unit_tau(self):
        res = eigen.eigen_residual(lambda z: 1.0, presets.example62(), 1.0, SAMPLES)
        assert res == 0.0

    def test_nan_at_one_sample_is_reported(self):
        # a fold by max() dropped the NaN and reported 0.0
        assert math.isnan(eigen.eigen_residual(nan_at_one_sample, sm.identity_map(), 1.0,
                                               SAMPLES))

    def test_estimator_beats_naive_candidates(self, deep_b):
        f = presets.example61(0.5)
        est = eigen.estimate_tau(deep_b, f, SAMPLES)
        best = eigen.eigen_residual(deep_b, f, est.tau, SAMPLES)
        for naive in (1.0, 1j, -1j):
            assert best <= eigen.eigen_residual(deep_b, f, naive, SAMPLES)


class TestSharedSampleValues:
    def test_shared_values_give_the_same_estimate_and_residual(self, deep_b):
        f = presets.example61(0.5)
        values = eigen.sample_values(deep_b, f, SAMPLES)
        est = eigen.estimate_tau(deep_b, f, SAMPLES, values)
        assert est == eigen.estimate_tau(deep_b, f, SAMPLES)
        assert (eigen.eigen_residual(deep_b, f, est.tau, SAMPLES, values)
                == eigen.eigen_residual(deep_b, f, est.tau, SAMPLES))

    def test_eigen_job_evaluates_each_candidate_once_per_point(self, tmp_path, monkeypatch):
        from diskdyn import cli

        calls = {}

        def counting(real):
            def counted(f, z):
                if len(f.zeros) > sm._SCALAR_MAX_ZEROS:
                    calls[len(f.zeros)] = calls.get(len(f.zeros), 0) + 1
                return real(f, z)
            return counted

        monkeypatch.setattr(sm, "_eval_fbp", counting(sm._eval_fbp))
        monkeypatch.setattr(eigen, "_factor_vector", counting(eigen._factor_vector))
        assert cli.main(["eigen", "--preset", "example61", "--alpha", "0.6", "--depth", "8",
                         "--out-dir", str(tmp_path)]) == 0
        # the deepest product's factors at the 16 samples and their 16
        # images give every depth's values; a product evaluated per depth
        # read {52: 32, 208: 32, 832: 32, 3328: 32}, and estimating tau and
        # then the residual apart 62 each
        assert calls == {3328: 32}


def value_bits(values) -> list[tuple[str, ...]]:
    """The bits of every part of sample_values' triples."""
    return [tuple(x.hex() for v in triple for x in (v.real, v.imag)) for triple in values]


def per_depth_rows(f, forward_n, depth):
    """The eigen command's rows and last estimate as a loop over depths
    computes them, one product per depth: prefix, build_truncated_eigenfunction,
    sample_values, estimate_tau, eigen_residual."""
    deepest = ob.grand_orbit(f, 0.0, forward_n=forward_n, backward_depth=depth)
    rows = []
    for d in [*range(2, depth, 2), depth]:
        tr = deepest.prefix(d)
        b = eigen.build_truncated_eigenfunction(tr)
        values = eigen.sample_values(b, f, SAMPLES)
        est = eigen.estimate_tau(b, f, SAMPLES, values)
        res = eigen.eigen_residual(b, f, est.tau, SAMPLES, values)
        rows.append((d, len(tr.nodes), est.tau.real, est.tau.imag, est.dispersion, res))
    return rows, est, res


def assert_prefixes_are_their_own_products(f, deepest, samples) -> list[list[bool]]:
    """prefix_samples at every depth of deepest against the product of each
    prefix on its own: the product, the bits of its sample values, the mask
    of kept samples and the estimate; returns the masks."""
    prefixes = eigen.prefix_samples(deepest, range(deepest.backward_depth + 1), f, samples)
    assert len(prefixes) == deepest.backward_depth + 1
    for d, (b, values, kept) in enumerate(prefixes):
        want = eigen.build_truncated_eigenfunction(deepest.prefix(d))
        assert (b.gamma, b.zeros) == (want.gamma, want.zeros)
        want_values = eigen.sample_values(want, f, samples)
        assert value_bits(values) == value_bits(want_values), d
        points = [*samples, *(fz for fz, _, _ in want_values)]
        ok = admissible(points, [a for a, _ in want.zeros])
        assert kept == [bz != 0 and ok[k] and ok[k + len(samples)]
                        for k, (_, bz, _) in enumerate(want_values)], d
        try:
            est = eigen.estimate_tau(want, f, samples, want_values)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                eigen.estimate_tau(b, f, samples, values, kept)
        else:
            assert eigen.estimate_tau(b, f, samples, values, kept) == est
    return [kept for _, _, kept in prefixes]


class TestPrefixSamples:
    @pytest.mark.parametrize("alpha", [0.5, 0.6, 0.7])
    def test_every_depth_is_its_own_product(self, alpha):
        # depths 0 and 1 (13 and 26 zeros) take the scalar loop, where the
        # numpy product rounds otherwise
        f = presets.example61(alpha)
        deepest = ob.grand_orbit(f, 0.0, forward_n=12, backward_depth=8)
        assert_prefixes_are_their_own_products(f, deepest, SAMPLES)

    def test_admissibility_follows_the_depth(self, truncations):
        # a sample about 0.01 from a generation-4 node, so its image lies within
        # 0.01 of that node's generation-3 parent (Schwarz-Pick): admissible
        # up to depth 2, not from depth 3 on
        f, deepest = presets.example61(0.5), truncations[6]
        node = next(n for n in deepest.nodes if n.backward_depth == 4)
        a = node.point
        samples = [*SAMPLES[:15], a + 0.01 * (1.0 - abs(a) ** 2)]
        assert 0.0099 < pseudo_hyperbolic(samples[-1], a) < 0.0101
        masks = assert_prefixes_are_their_own_products(f, deepest, samples)
        assert [kept[-1] for kept in masks] == [True] * 3 + [False] * 4

    def test_depth_outside_the_truncation_rejected(self, truncations):
        f = presets.example61(0.5)
        for depths in ([4, 9], [-1]):
            with pytest.raises(ValueError, match="depths must lie in"):
                eigen.prefix_samples(truncations[8], depths, f, SAMPLES)

    def test_no_depths_give_no_rows(self, truncations):
        # as an empty sample list gives rows of no values
        assert eigen.prefix_samples(truncations[8], [], presets.example61(0.5), SAMPLES) == []

    @pytest.mark.parametrize("alpha", ["0.5", "0.55", "0.6", "0.65", "0.7"])
    def test_eigen_rows_are_the_per_depth_loop(self, tmp_path, alpha):
        from diskdyn import cli

        f = presets.example61(float(alpha))
        header = ("depth", "nodes", "tau_re", "tau_im", "dispersion", "residual")
        for forward_n, depth in ((12, 1), (12, 3), (0, 2), (12, 8)):
            out = tmp_path / f"{forward_n}-{depth}"
            assert cli.main(["eigen", "--preset", "example61", "--alpha", alpha,
                             "--forward-n", str(forward_n), "--depth", str(depth),
                             "--out-dir", str(out)]) == 0
            rows, est, res = per_depth_rows(f, forward_n, depth)
            cli._write_csv(tmp_path / "want.csv", header, rows)
            got = (out / "eigen_depths.csv").read_bytes()
            assert got == (tmp_path / "want.csv").read_bytes(), (forward_n, depth)
            result = json.loads((out / "summary.json").read_text())["result"]
            assert (result["tau_re"], result["tau_im"]) == (est.tau.real, est.tau.imag)
            assert (result["residual"], result["sample_count"]) == (res, est.sample_count)


class TestSquareTrick:
    def test_shared_values_give_the_same_residual(self, deep_b):
        f = presets.example61(0.5)
        values = eigen.sample_values(deep_b, f, SAMPLES)
        want = eigen.worst_residual(abs(deep_b(sm.evaluate(f, z)) ** 2 - deep_b(z) ** 2)
                                    for z in SAMPLES)
        for got in (eigen.square_trick_check(deep_b, f, SAMPLES, values),
                    eigen.square_trick_check(deep_b, f, SAMPLES)):
            assert got.hex() == want.hex()

    def test_exact_sign_flip_pair_squares_to_invariant(self):
        # theta = pi gives eigenvalue -1, so the square is exactly invariant
        t = presets.translation()
        u = eigen.SingularEigenfunction(math.pi, eigen.translation_abel_disk)
        assert eigen.square_trick_check(u, t, SAMPLES) < 1e-10

    def test_truncation_square_residual_bounded(self, truncations, deep_b):
        f = presets.example61(0.5)
        res_minus1 = eigen.eigen_residual(deep_b, f, -1.0, SAMPLES)
        assert eigen.square_trick_check(deep_b, f, SAMPLES) <= 2.0 * res_minus1

    def test_constant_candidate(self):
        assert eigen.square_trick_check(lambda z: 0.7j, presets.example62(), SAMPLES) == 0.0

    def test_nan_at_one_sample_is_reported(self):
        # a fold by max() dropped the NaN and reported 0.0
        assert math.isnan(eigen.square_trick_check(nan_at_one_sample, sm.identity_map(),
                                                   SAMPLES))


class TestUTheta:
    def test_zero_angle_is_constant_one(self):
        u = eigen.SingularEigenfunction(0.0, eigen.translation_abel_disk)
        for z in (0.0, 0.5j, -0.3):
            assert u(z) == 1.0

    def test_bounded_on_random_points(self):
        rng = np.random.default_rng(77)
        u = eigen.SingularEigenfunction(1.3, eigen.translation_abel_disk)
        for _ in range(1000):
            z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            if abs(z) >= 0.98:
                continue
            assert abs(u(z)) <= 1.0

    def test_group_law(self):
        h = eigen.translation_abel_disk
        z = 0.2 + 0.3j
        for t1, t2 in ((0.5, 1.1), (2.0, 3.0), (0.1, 0.05)):
            lhs = eigen.u_theta(t1, h, z) * eigen.u_theta(t2, h, z)
            assert lhs == pytest.approx(eigen.u_theta(t1 + t2, h, z), abs=1e-12)

    def test_tau_property(self):
        u = eigen.SingularEigenfunction(2.5, eigen.translation_abel_disk)
        assert u.tau == cmath.exp(2.5j)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            eigen.u_theta(-0.1, eigen.translation_abel_disk, 0.0)
        with pytest.raises(ValueError):
            eigen.u_theta(7.0, eigen.translation_abel_disk, 0.0)

    def test_unbounded_handle_warns(self):
        lower_handle = lambda z: -eigen.translation_abel_disk(z)
        with pytest.warns(eigen.UnboundedCandidateWarning):
            eigen.u_theta(1.0, lower_handle, 0.3)


class TestFrostmanShift:
    def test_zero_shift_returns_candidate(self):
        u = eigen.SingularEigenfunction(1.0, eigen.translation_abel_disk)
        assert eigen.frostman_shift(u, 0.0) is u

    def test_constant_invariant_stays_invariant(self):
        const = lambda z: 0.4 + 0.1j
        shifted = eigen.frostman_shift(const, 0.25j)
        res = eigen.eigen_residual(shifted, presets.example62(), 1.0, SAMPLES)
        assert res == 0.0

    def test_full_turn_eigenfunction_report(self):
        t = presets.translation()
        u = eigen.SingularEigenfunction(2 * math.pi, eigen.translation_abel_disk)
        a = 0.3 + 0.2j
        base = eigen.eigen_residual(u, t, 1.0, SAMPLES)
        shifted = eigen.eigen_residual(eigen.frostman_shift(u, a), t, 1.0, SAMPLES)
        # the shift is Lipschitz with constant sup |m_a'| = (1 + |a|)/(1 - |a|)
        assert shifted <= base * (1.0 + abs(a)) / (1.0 - abs(a)) + 1e-15

    def test_shift_point_validated(self):
        with pytest.raises(ValueError):
            eigen.frostman_shift(lambda z: z, 1.5)


class TestSignAlternation:
    def test_derivative_alternates_at_consecutive_real_zeros(self, deep_b):
        f = presets.example61(0.5)
        z1 = sm.evaluate(f, 0.0).real
        h = 1e-6
        d0 = ((deep_b(h) - deep_b(-h)) / (2 * h)).real
        d1 = ((deep_b(z1 + h) - deep_b(z1 - h)) / (2 * h)).real
        assert d0 * d1 < 0

