"""Step and merging sequences against a 40-digit mpmath orbit of the same
float map, walked in the disk: an oracle that shares no code with the
half-plane transport it checks."""

import mpmath
import pytest

from diskdyn import dynamics as dyn
from diskdyn import presets

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
