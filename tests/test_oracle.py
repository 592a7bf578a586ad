"""Step and merging sequences against a 40-digit mpmath orbit of the same
float map, walked in the disk: an oracle that shares no code with the
half-plane transport it checks.  Double roots of fibers against 40-digit
critical points.  The half-plane transport itself against the float map
evaluated at 320 digits."""

import cmath
import math

import mpmath
import numpy as np
import pytest

from diskdyn import dynamics as dyn
from diskdyn import presets
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
