"""Step and merging sequences against a 40-digit mpmath orbit of the same
float map, walked in the disk: an oracle that shares no code with the
half-plane transport it checks.  Double roots of fibers against 40-digit
critical points.  The half-plane transport itself against the float map
evaluated at 320 digits.  Angular derivatives against a 50-digit Poisson
sum."""

import cmath
import math

import mpmath
import numpy as np
import pytest

from diskdyn import dynamics as dyn
from diskdyn import presets, properties
from diskdyn import selfmap as sm

N = 10000


def _mp_map(f):
    """f evaluated in mpmath from its float gamma and zeros, factor by factor."""
    gamma = mpmath.mpc(f.gamma)
    factors = [(mpmath.mpc(a), m) for a, m in f.zeros]

    def ev(z):
        v = gamma
        for a, m in factors:
            u = -(a / abs(a)) * (z - a) / (1 - mpmath.conj(a) * z) if a != 0 else z
            v *= u ** m
        return v

    return ev


def _mp_rho(z, w):
    return abs((w - z) / (1 - mpmath.conj(w) * z))


@pytest.fixture(scope="module")
def oracle():
    """Points n = 0..N + 1 of the orbit of 0 and point N of the orbit of 0.5i."""
    f = presets.example62()
    with mpmath.workdps(40):
        ev = _mp_map(f)
        orbit = [mpmath.mpc(0)]
        for _ in range(N + 1):
            orbit.append(ev(orbit[-1]))
        w = mpmath.mpc(0.5j)
        for _ in range(N):
            w = ev(w)
        step = {n: _mp_rho(orbit[n], orbit[n + 1]) for n in (5000, N)}
        merge = _mp_rho(orbit[N], w)
    return f, step, merge


def test_step_sequence_matches_oracle(oracle):
    f, step, _ = oracle
    seq = dyn.hyperbolic_step(f, 0.0, N).sequence
    for n, exact in step.items():
        assert float(abs(seq[n] - exact) / exact) < 1e-11, n


def test_orbit_merging_matches_oracle(oracle):
    f, _, merge = oracle
    value = dyn.orbit_merging(f, 0.0, 0.5j, N)[N]
    assert float(abs(value - merge) / merge) < 3e-10


def _mp_log_derivative(f):
    """f'/f of the float map in mpmath; its zeros are the critical points."""
    factors = [(mpmath.mpc(a), m) for a, m in f.zeros]

    def ld(z):
        return sum(m * (1 - abs(a) ** 2) / ((z - a) * (1 - mpmath.conj(a) * z))
                   for a, m in factors)

    return ld


def test_double_root_of_critical_fiber_matches_oracle():
    """The fiber over a nonzero critical value f(c) has c as its one double
    root; c is found to 40 digits from the float critical point."""
    rng = np.random.default_rng(2026)
    errors = []
    for _ in range(100):
        zeros = [(0.85 * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random()), 1)
                 for _ in range(int(rng.integers(2, 5)))]
        f = sm.FiniteBlaschkeProduct(cmath.exp(2j * math.pi * rng.random()), zeros)
        ev, ld = _mp_map(f), _mp_log_derivative(f)
        for c0, _ in sm.critical_points(f):
            with mpmath.workdps(40):
                c = mpmath.findroot(ld, mpmath.mpc(c0))
                w = complex(ev(c))
            (z,) = [z for z, m in sm.preimages(f, w) if m == 2]
            with mpmath.workdps(40):
                errors.append(float(abs(z - c)))
    assert len(errors) == 202
    # measured: median 8.4e-17, worst 1.7e-15 (unpolished cluster means:
    # median 2.4e-16, worst 1.5e-14)
    assert float(np.median(errors)) < 1.5e-16
    assert max(errors) < 2e-15


def _mp_transport(f, omega):
    """C(conj(omega) f(omega C^-1(w))) in mpmath, stage by stage from the
    float map, with C(z) = (1 + z) / (1 - z)."""
    stages = [_mp_map(stage) for stage in sm._stages(f)]
    om = mpmath.mpc(omega)

    def apply(w):
        z = om * (w - 1) / (w + 1)
        for ev in stages:
            z = ev(z)
        z = mpmath.conj(om) * z
        return (1 + z) / (1 - z)

    return apply


def _transport_error(f, radii):
    """Worst relative error of HalfPlaneConjugate.apply over five arguments
    at each radius, with omega = classify(f).dw_point."""
    omega = dyn.classify(f).dw_point
    hp = sm.HalfPlaneConjugate(f, omega)
    worst = 0.0
    with mpmath.workdps(320):
        exact = _mp_transport(f, omega)
        for r in radii:
            for t in (-1.3, -0.6, 0.0, 0.5, 1.2):
                w = r * cmath.exp(1j * t)
                value = exact(mpmath.mpc(w))
                worst = max(worst, float(abs(hp.apply(w) - value) / abs(value)))
    return worst


def _rotated_example62(t):
    """e^{it} f(e^{-it} z) for f = example62: attracting point e^{it}."""
    return sm.FiniteBlaschkeProduct(cmath.exp(-3j * t), ((-cmath.exp(1j * t) / 3.0, 2),))


@pytest.mark.parametrize("f", [
    presets.example62(),
    presets.example61(0.6),
    # the second stage has a zero at the origin and fixes 1
    sm.compose(sm.FiniteBlaschkeProduct(1.0, ((0.0, 1), (-0.5, 1))), presets.example61(0.6)),
], ids=["example62", "example61", "composite"])
def test_transport_matches_oracle(f):
    # measured: worst 3.4e-16 over all radii, the 1/w form included
    assert _transport_error(f, (1.5, 30, 1e3, 1e6, 1e100, 1e250)) < 4e-16


@pytest.mark.parametrize("f", [
    _rotated_example62(1.0),
    sm.compose(_rotated_example62(1.0), _rotated_example62(1.0)),
], ids=["example62", "composite"])
def test_rotated_transport_matches_oracle(f):
    # measured: worst 9.4e-15 (the composite at |w| = 30).  The float omega
    # is a fixed point of the float map only to rounding, so the transported
    # map drifts from the oracle like 1.5e-16 |w|: 1.4e-10 at |w| = 1e6,
    # not pinned
    assert _transport_error(f, (1.5, 3.0, 10.0, 30.0)) < 1.2e-14


# the unit roundoff of a double
U = 2.0 ** -53

# CI's composite (two rotated example62 stages) and mixed (a cubic stage,
# then a quadratic) maps
CI_COMPOSITE = sm.CompositeMap((_rotated_example62(1.0),) * 2)
CI_MIXED = sm.CompositeMap((sm.FiniteBlaschkeProduct(1.0, ((-0.5, 3),)),
                            sm.FiniteBlaschkeProduct(1.0, ((-1 / 3, 2),))))


def _mp_angular_derivative(f, omega):
    """|f'(omega)| in 50 digits: the product over the stages of the Poisson
    sums sum m (1 - |a|^2) / |alpha_k - a|^2, at the float points alpha_0 =
    omega, alpha_{k+1} = s_k(alpha_k) that the program walks, each taken
    onto the circle exactly."""
    with mpmath.workdps(50):
        a, alpha = mpmath.mpf(1), complex(omega)
        for stage in sm._stages(f):
            point = mpmath.mpc(alpha) / abs(mpmath.mpc(alpha))
            a *= sum(m * (1 - abs(mpmath.mpc(z)) ** 2) / abs(point - mpmath.mpc(z)) ** 2
                     for z, m in stage.zeros)
            alpha = sm.evaluate(stage, alpha)
        return a


def _ulps(value, exact):
    """|value - exact| / |exact| in units of U."""
    with mpmath.workdps(50):
        return float(abs(mpmath.mpf(value) - exact) / abs(exact)) / U


BOUNDARY_MAPS = {
    "example61(0.5)": presets.example61(0.5),
    "example61(0.6)": presets.example61(0.6),
    "example61(0.7)": presets.example61(0.7),
    "example62": presets.example62(),
    "translation": presets.translation(),
    "composite": CI_COMPOSITE,
    "mixed": CI_MIXED,
}


@pytest.mark.parametrize("f", BOUNDARY_MAPS.values(), ids=BOUNDARY_MAPS.keys())
def test_classified_angular_derivative_matches_oracle(f):
    # measured: at most 0.63 U, a correctly rounded (the jet read up to 2.6 U)
    cls = dyn.classify(f)
    exact = _mp_angular_derivative(f, cls.dw_point)
    assert _ulps(cls.angular_derivative, exact) <= 3
    assert sm.angular_derivative(f, cls.dw_point) == cls.angular_derivative


@pytest.mark.parametrize("f", [*BOUNDARY_MAPS.values(), presets.power_map(2)],
                         ids=[*BOUNDARY_MAPS.keys(), "power2"])
def test_angular_derivative_around_the_circle_matches_oracle(f):
    # measured: worst 0.89 U over the twelve points of each map
    worst = max(_ulps(sm.angular_derivative(f, omega), _mp_angular_derivative(f, omega))
                for omega in (cmath.exp(2j * math.pi * k / 12) for k in range(12)))
    assert worst <= 3


def test_angular_derivative_of_random_products_matches_oracle():
    # 200 seeded (product, circle point) draws; measured: median 0.32 U,
    # worst 0.89 U (a 21-radius Richardson tableau on the same draws was off
    # by a median 4.6e-9 relative, worst 1.2e-7)
    rng = np.random.default_rng(2028)
    errors = []
    for _ in range(200):
        f = sm.FiniteBlaschkeProduct(*properties._random_product(rng))
        omega = cmath.exp(2j * math.pi * rng.random())
        errors.append(_ulps(sm.angular_derivative(f, omega), _mp_angular_derivative(f, omega)))
    assert max(errors) <= 3


def test_exact_boundary_constants_are_exact():
    # a = 0.5 + 3.5e-17 and b = 0 for example61(0.6); a = 1 and b = -1 for
    # translation: rounded from the Clark sums, the shift a (a - 1) + i a^2 b
    # is exact (the jet read a = 0.4999999999999999, shift
    # -0.24999999999999994, and -1.8e-16 - 1.0000000000000002i)
    cls = dyn.classify(presets.example61(0.6))
    assert (cls.angular_derivative, cls.shift) == (0.5, -0.25)
    cls = dyn.classify(presets.translation())
    assert (cls.angular_derivative, cls.shift) == (1.0, -1j)
    cls = dyn.classify(presets.example62())
    assert (cls.angular_derivative, cls.shift) == (1.0, 0j)
