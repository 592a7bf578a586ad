"""Step and merging sequences against a 40-digit mpmath orbit of the same
float map, walked in the disk: an oracle that shares no code with the
half-plane transport it checks.  Double roots of fibers against 40-digit
critical points."""

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
