import cmath
import math

import numpy as np
import pytest

from diskdyn import eigen
from diskdyn import orbits as ob
from diskdyn import presets
from diskdyn import selfmap as sm
from diskdyn.geometry import mobius_factor, pseudo_hyperbolic

SAMPLES = eigen.ring_samples(0.4, 16)


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
        tr = ob.GrandOrbitTruncation(a, 0, 0, (node,), (1 - abs(a),), False)
        b = eigen.build_truncated_eigenfunction(tr)
        for z in (0.0, 0.5, -0.1 + 0.4j):
            assert b(z) == pytest.approx(mobius_factor(a, z), abs=1e-15)

    def test_empty_truncation_rejected(self):
        tr = ob.GrandOrbitTruncation(0.0, 0, 0, (), (0.0,), False)
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
        arr = (np.array([a.real for a in zeros]), np.array([a.imag for a in zeros]))
        on_zero = zeros[40]
        # a preimage of a node outside the truncation's zero set
        (image_on_zero, _), *_ = sm.preimages(f, zeros[-1])
        assert abs(sm.evaluate(f, image_on_zero) - zeros[-1]) < 1e-12
        rng = np.random.default_rng(3)
        samples = SAMPLES + [on_zero, image_on_zero, zeros[-1] + 0.03, 0.0] + [
            complex(*rng.uniform(-0.6, 0.6, 2)) for _ in range(200)
        ]
        kept = 0
        for z in samples:
            for point in (z, sm.evaluate(f, z)):
                scalar = all(pseudo_hyperbolic(point, a) > eigen.ADMISSIBLE_RADIUS
                             for a in zeros)
                assert eigen._admissible(point, arr) == scalar
            kept += eigen._admissible(z, arr) and eigen._admissible(sm.evaluate(f, z), arr)
        assert not eigen._admissible(on_zero, arr)
        assert not eigen._admissible(sm.evaluate(f, image_on_zero), arr)
        assert 0 < kept < len(samples)

    def test_estimate_tau_tests_every_zero_exactly(self, deep_b, monkeypatch):
        seen = []
        admissible = eigen._admissible

        def record(z, zeros):
            seen.append(zeros)
            return admissible(z, zeros)

        monkeypatch.setattr(eigen, "_admissible", record)
        eigen.estimate_tau(deep_b, presets.example61(0.5), SAMPLES)
        want = np.array([(a.real, a.imag) for a, _ in deep_b.zeros])
        assert seen
        for re, im in seen:
            assert np.array_equal(np.column_stack([re, im]).view(np.int64), want.view(np.int64))

    def test_admissibility_at_the_radius_is_the_scalar_rule(self, truncations):
        # points a few ulps off the 0.05 circle around a zero, and preimages
        # of such points, whose images land within a few ulps of it
        f = presets.example61(0.5)
        zeros = [n.point for n in truncations[4].nodes]
        arr = np.array(zeros)
        parts = (arr.real.copy(), arr.imag.copy())
        circle = []
        for a in zeros[::40]:
            for k in range(24):
                t = eigen.ADMISSIBLE_RADIUS * cmath.exp(2j * math.pi * k / 24)
                z = (a + t) / (1.0 + a.conjugate() * t)
                circle += [complex(z.real + dx * math.ulp(z.real), z.imag + dy * math.ulp(z.imag))
                           for dx in (-2, 0, 2) for dy in (-2, 0, 2)]
        images = [sm.evaluate(f, z) for p in circle[::9] for z, _ in sm.preimages(f, p)]
        numpy_rule = 0
        for point in circle + images:
            scalar = all(pseudo_hyperbolic(point, a) > eigen.ADMISSIBLE_RADIUS for a in zeros)
            assert eigen._admissible(point, parts) == scalar
            rho = np.abs((arr - point) / (1.0 - arr.conj() * point))
            numpy_rule += bool((rho > eigen.ADMISSIBLE_RADIUS).all()) != scalar
        kept = sum(eigen._admissible(point, parts) for point in circle + images)
        assert 0 < kept < len(circle + images)
        # the numpy complex quotient with np.abs decides some differently
        assert numpy_rule > 0

    def test_sample_outside_the_disk_rejected(self, deep_b):
        with pytest.raises(ValueError, match="not strictly inside"):
            eigen.estimate_tau(deep_b, presets.example61(0.5), SAMPLES + [1.0])


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
        scalar = sm._eval_fbp

        def counted(f, z):
            if len(f.factors) > sm._SCALAR_MAX_ZEROS:
                calls[len(f.factors)] = calls.get(len(f.factors), 0) + 1
            return scalar(f, z)

        monkeypatch.setattr(sm, "_eval_fbp", counted)
        assert cli.main(["eigen", "--preset", "example61", "--alpha", "0.6", "--depth", "8",
                         "--out-dir", str(tmp_path)]) == 0
        # 16 samples and their 16 images per depth; estimating tau and then
        # the residual apart made 62 each (248 in all)
        assert calls == {52: 32, 208: 32, 832: 32, 3328: 32}


class TestSquareTrick:
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

