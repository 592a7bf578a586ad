"""The generated transport kernel against the stage loop it replaced.

StageLoop is HalfPlaneConjugate's former construction and apply body, a loop
over stages and over each stage's Horner tail tuples.  The kernel must give
its results bit for bit, raise its errors with the same type and message,
and walk its orbits bit for bit.
"""

import cmath
import math
import struct

import numpy as np
import pytest

from diskdyn import dynamics as dyn
from diskdyn import presets
from diskdyn import selfmap as sm
from diskdyn import transport
from diskdyn.stacks import _substitute


class StageLoop:
    """The reference arithmetic of the transport kernel."""

    def __init__(self, f, omega):
        stages = sm._stages(f)
        built, self.snapped = [], False
        for idx, stage in enumerate(stages):
            in_rot = omega if idx == 0 else 1.0
            out_rot = omega.conjugate() if idx == len(stages) - 1 else 1.0
            tn, td = (rows[0] for rows in _substitute(
                stage._stack, in_rot * np.array([-1.0, 1.0]), np.array([1.0, 1.0])))
            gtn = out_rot * stage.gamma * tn
            a, b = td + gtn, td - gtn
            if abs(b[-1]) < 1e-9 * np.max(np.abs(b)):
                b[-1] = 0.0
                self.snapped = True
            a, b = a.tolist(), b.tolist()
            in_w, in_inverse = tuple(zip(a[::-1], b[::-1])), tuple(zip(a, b))
            built.append((in_w[0], in_w[1:], in_inverse[0], in_inverse[1:]))
        self._stages = built

    def apply(self, w):
        for head_w, tail_w, head_inv, tail_inv in self._stages:
            if abs(w) <= 1.0:
                (p, q), x, tail = head_w, w, tail_w
            else:
                (p, q), x, tail = head_inv, 1.0 / w, tail_inv
            for ca, cb in tail:
                p = ca + p * x
                q = cb + q * x
            w = p / q
        return w


def bits(w):
    """The bytes of a complex value, so that -0.0 and NaN payloads count."""
    return struct.pack("<dd", w.real, w.imag)


def outcome(step, w):
    """The bits of step(w), or the type and message of what it raises."""
    try:
        return bits(step(w))
    except Exception as exc:
        return type(exc), str(exc)


def rotated_example62(t):
    """e^{it} f(e^{-it} z) for f = example62: attracting point e^{it}."""
    return sm.FiniteBlaschkeProduct(cmath.exp(-3j * t), ((-cmath.exp(1j * t) / 3.0, 2),))


def random_stage(rng):
    """A product of degree 1 to 4, its zeros drawn inside radius 0.9 with
    multiplicities 1 or 2."""
    zeros, degree = [], int(rng.integers(1, 5))
    while degree:
        m = min(degree, int(rng.integers(1, 3)))
        zeros.append((0.9 * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random()), m))
        degree -= m
    return sm.FiniteBlaschkeProduct(cmath.exp(2j * math.pi * rng.random()), zeros)


def large_product(degree, seed):
    """A product of `degree` simple zeros drawn inside radius 0.5."""
    rng = np.random.default_rng(seed)
    return sm.FiniteBlaschkeProduct(1.0, [(complex(rng.random() - 0.5, rng.random() - 0.5), 1)
                                          for _ in range(degree)])


def random_map(rng):
    stages = [random_stage(rng) for _ in range(int(rng.integers(1, 4)))]
    return stages[0] if len(stages) == 1 else sm.CompositeMap(tuple(stages))


# |w| on both sides of 1, at 1 exactly, and up to 1e280, at angles in and
# out of the half-plane; then the points where the step raises:
# ZeroDivisionError at the poles 0 and infinity of the stage maps that fix
# infinity, OverflowError where abs(w) overflows
ARGUMENTS = (
    [r * cmath.exp(1j * t)
     for r in (1e-3, 0.3, 0.999999, 1.0, 1.000001, 1.5, 30.0, 1e6, 1e100, 1e250, 1e280)
     for t in (-1.3, -0.6, 0.0, 0.5, 1.2, 2.5)]
    + [1.0 + 0j, -1.0 + 0j, 1j, 0j, complex(math.inf, 0.0), complex(0.0, math.inf),
       complex(1.5e308, 1.5e308), complex(math.nan, 0.0), complex(1.0, math.nan)]
)


def assert_kernel_is_the_stage_loop(f, omega):
    """step == StageLoop.apply on every argument, and a walk from each
    argument takes the stage loop's step or returns its error, bit for bit.
    Returns the reference and the error types seen."""
    hp, ref = sm.HalfPlaneConjugate(f, omega), StageLoop(f, omega)
    errors = set()
    for w in ARGUMENTS:
        want = outcome(ref.apply, w)
        assert outcome(hp.apply, w) == want, w
        orbit = [w]
        error = hp.walk(orbit, 3)
        if isinstance(want, tuple):
            assert (type(error), str(error)) == want and orbit == [w], w
            errors.add(want[0])
        else:
            assert bits(orbit[1]) == want, w
    return ref, errors


def test_seeded_maps():
    rng = np.random.default_rng(16)
    degrees = set()
    for _ in range(60):
        f = random_map(rng)
        degrees.add(tuple(s.degree for s in sm._stages(f)))
        # omega = 1 and a random point of the circle
        for omega in (1.0 + 0j, cmath.exp(2j * math.pi * rng.random())):
            assert_kernel_is_the_stage_loop(f, omega)
    # stage counts 1 to 3 and stage degrees 1 to 4 all come up
    assert {len(d) for d in degrees} == {1, 2, 3}
    assert {k for d in degrees for k in d} == {1, 2, 3, 4}


@pytest.mark.parametrize("name, f", [
    ("zero-at-origin", sm.FiniteBlaschkeProduct(0.6 - 0.8j, ((0.0, 1), (-0.5 + 0.2j, 2)))),
    ("composite-zero-at-origin", sm.compose(
        sm.FiniteBlaschkeProduct(1.0, ((0.0, 1), (-0.5, 1))), presets.example61(0.6))),
    ("example61", presets.example61(0.6)),
    ("rotated-composite", sm.compose(rotated_example62(0.84), rotated_example62(0.84))),
    # Horner nests of 16 steps: 40 crosses two boundaries, and 250 is past
    # the parser's limit of 200 nested parentheses
    ("degree-40", large_product(40, 1)),
    ("degree-250", large_product(250, 2)),
    ("composite-degree-40", sm.compose(large_product(40, 3), presets.example62())),
])
def test_named_maps(name, f):
    for omega in (1.0 + 0j, cmath.exp(0.7j)):
        assert_kernel_is_the_stage_loop(f, omega)


@pytest.mark.parametrize("f", [
    presets.example62(),
    rotated_example62(1.234),
    sm.compose(presets.example62(), presets.example62()),
], ids=["example62", "rotated", "composite"])
def test_snapped_leading_coefficient(f):
    # maps whose stages fix the attracting point: a transported stage fixes
    # infinity, and the stage loop snapped its b[-1] to 0
    ref, errors = assert_kernel_is_the_stage_loop(f, dyn.classify(f).dw_point)
    assert ref.snapped
    assert errors == {ZeroDivisionError, OverflowError}


def test_one_kernel_per_stage_degree_sequence():
    a = sm.HalfPlaneConjugate(rotated_example62(0.3), cmath.exp(0.3j))
    b = sm.HalfPlaneConjugate(presets.example61(0.6), 1.0)
    assert a.walk.__code__ is b.walk.__code__ and a.apply(2.0) != b.apply(2.0)
    assert transport._kernel((2,)) is transport._kernel((2,))
    c = sm.HalfPlaneConjugate(sm.compose(presets.example61(0.6), presets.example62()), 1.0)
    assert c.walk.__code__ is not a.walk.__code__
    # coefficients are arguments, not constants of the generated source:
    # the constants are 1.0 (|w| <= 1.0, 1.0 / w), orbit[-1]'s index and None
    for fn in (a._step, c._step, a.walk, c.walk):
        assert set(fn.__code__.co_consts) <= {None, 1.0, -1}


def test_exact_form_runs_the_opaque_kernel():
    hp = sm.HalfPlaneConjugate(presets.translation(), 1.0)
    orbit = [3.0 + 2.0j]
    assert hp.walk(orbit, 3) is None
    assert orbit == [3.0 + 2.0j, 3.0 + 1.0j, 3.0 + 0.0j, 3.0 - 1.0j]
    assert hp.walk.__code__ is transport._kernel(None)(abs)[1].__code__


@pytest.mark.parametrize("f", [
    rotated_example62(0.84),
    sm.compose(rotated_example62(0.84), rotated_example62(0.84)),
], ids=["rotated-example62", "composite"])
def test_long_walk(f):
    omega = dyn.classify(f).dw_point
    hp, ref = sm.HalfPlaneConjugate(f, omega), StageLoop(f, omega)
    orbit = [hp.to_halfplane(0.3 + 0.2j)]
    assert hp.walk(orbit, 100000) is None
    want = [orbit[0]]
    for _ in range(100000):
        want.append(ref.apply(want[-1]))
    assert np.array(orbit).view(np.int64).tolist() == np.array(want).view(np.int64).tolist()
