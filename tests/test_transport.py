"""The Clark-form transport kernel against the Horner arithmetic it replaced
and against a 40-digit mpmath oracle.

StageLoop is the former construction and apply body: one rational form
a(w)/b(w) per stage from ``_substitute``, stepped by Horner's rule in w, or
in 1/w once |w| > 1, with a leading coefficient b_d below 1e-9 of the
largest snapped to 0.  It is built here on the kernel's chain of frames
(stage k conjugated from omega_{k-1} to omega_k = s_k(omega_{k-1})), so
both compute the same map and differ only by rounding.
"""

import cmath
import math
import sys

import mpmath
import numpy as np
import pytest

from diskdyn import dynamics as dyn
from diskdyn import presets
from diskdyn import selfmap as sm
from diskdyn import transport
from diskdyn.stacks import _substitute

ULP = 2.0 ** -52


def clark_stage(zeros, alpha):
    """transport._clark_stage of a stage at alpha, from its Clark sums."""
    return transport._clark_stage(zeros, transport._clark_sums(zeros, alpha))


def frames(f, omega):
    """The unimodular frame of each stage: omega, then each stage's image."""
    alpha, out = omega / abs(omega), []
    for stage in sm._stages(f):
        out.append(alpha)
        alpha = sm._eval_fbp(stage, alpha)
        alpha /= abs(alpha)
    return out + [alpha]


class StageLoop:
    """The reference Horner arithmetic, on the kernel's frames."""

    def __init__(self, f, omega):
        built, chain, self.snapped = [], frames(f, omega), False
        for stage, alpha, beta in zip(sm._stages(f), chain, chain[1:]):
            # z = alpha (w - 1) / (w + 1) gives stage(z) = gamma tn / td
            tn, td = (rows[0] for rows in _substitute(
                stage._stack, alpha * np.array([-1.0, 1.0]), np.array([1.0, 1.0])))
            gtn = beta.conjugate() * stage.gamma * tn
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


def mp_transport(f, omega):
    """The kernel's map in mpmath from the float stages: stage k is
    C(conj(beta) s(alpha C^{-1}(w))) for the unimodular frame alpha of
    ``frames`` and beta = s(alpha), with gamma scaled to modulus 1."""
    stages = []
    for stage, alpha in zip(sm._stages(f), frames(f, omega)):
        gamma = mpmath.mpc(stage.gamma)
        zeros = [(mpmath.mpc(a), m) for a, m in stage.zeros]

        def ev(z, gamma=gamma / abs(gamma), zeros=zeros):
            v = gamma
            for a, m in zeros:
                v *= (-(a / abs(a)) * (z - a) / (1 - mpmath.conj(a) * z) if a != 0 else z) ** m
            return v

        alpha = mpmath.mpc(alpha)
        alpha /= abs(alpha)
        stages.append((ev, alpha, mpmath.conj(ev(alpha))))

    def apply(w):
        for ev, alpha, beta_bar in stages:
            z = beta_bar * ev(alpha * (w - 1) / (w + 1))
            w = (1 + z) / (1 - z)
        return w

    return apply


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


# CI's composite smoke maps: two rotated example62 stages, and a degree-3
# stage followed by example62
COMPOSITE = sm.compose(rotated_example62(1.0), rotated_example62(1.0))
MIXED = sm.CompositeMap((sm.FiniteBlaschkeProduct(1.0, ((-0.5, 3),)), presets.example62()))


def halfplane_points(n, seed, low=-3.0, high=8.0):
    """n points of the right half-plane, |w| = 10^U(low, high) at angles
    U(-pi/2, pi/2)."""
    rng = np.random.default_rng(seed)
    r = 10.0 ** rng.uniform(low, high, n)
    return (r * np.exp(1j * rng.uniform(-math.pi / 2, math.pi / 2, n))).tolist()


def worst_relative_gap(f, omega, points):
    hp, ref = sm.HalfPlaneConjugate(f, omega), StageLoop(f, omega)
    return max(abs(hp.apply(w) - ref.apply(w)) / abs(ref.apply(w)) for w in points)


NAMED = [
    ("zero-at-origin", sm.FiniteBlaschkeProduct(0.6 - 0.8j, ((0.0, 1), (-0.5 + 0.2j, 2)))),
    ("composite-zero-at-origin", sm.compose(
        sm.FiniteBlaschkeProduct(1.0, ((0.0, 1), (-0.5, 1))), presets.example61(0.6))),
    ("example61", presets.example61(0.6)),
    ("rotated-composite", sm.compose(rotated_example62(0.84), rotated_example62(0.84))),
    # 39 and 249 poles: more than one 16-pole sum
    ("degree-40", large_product(40, 1)),
    ("degree-250", large_product(250, 2)),
    ("composite-degree-40", sm.compose(large_product(40, 3), presets.example62())),
    ("example62", presets.example62()),
    ("translation", presets.translation()),
    ("ci-composite", COMPOSITE),
    ("mixed", MIXED),
]

# worst |kernel - StageLoop| / |StageLoop| in ulps over 400 points with |w|
# from 1e-3 to 1e280, at omega = 1 and e^{0.7i}; measured in the comments
NAMED_ULPS = {
    "zero-at-origin": 4,  # 2.3
    "composite-zero-at-origin": 8,  # 4.2
    "example61": 4,  # 2.0
    "rotated-composite": 16,  # 10.6
    "degree-40": 32,  # 14.5
    "degree-250": 64,  # 25.7
    # 46,471: StageLoop's degree-40 Horner form is off by up to 1.4e-10
    # against the oracle for |w| <= 1e8, the kernel by 3.2e-14
    "composite-degree-40": 2 ** 17,
    "example62": 4,  # 2.3
    "translation": 4,  # 2.5
    "ci-composite": 32,  # 11.7
    "mixed": 8,  # 3.2
}


@pytest.mark.parametrize("name, f", NAMED)
def test_named_maps(name, f):
    points = halfplane_points(400, 1, high=280.0)
    for omega in (1.0 + 0j, cmath.exp(0.7j)):
        assert worst_relative_gap(f, omega, points) <= NAMED_ULPS[name] * ULP, omega


def test_seeded_maps():
    rng = np.random.default_rng(16)
    gaps, poles = [], set()
    points = halfplane_points(100, 2, high=100.0)
    for _ in range(60):
        f = random_map(rng)
        omega = cmath.exp(2j * math.pi * rng.random())
        poles.add(tuple(s.degree - 1 for s in sm._stages(f)))
        gaps.append(worst_relative_gap(f, omega, points))
    # measured: median 6.5 ulps, worst 828 (near a zero of an inner stage)
    assert np.median(gaps) <= 16 * ULP
    assert max(gaps) <= 2048 * ULP
    # stage counts 1 to 3 and pole counts 0 to 3 all come up
    assert {len(p) for p in poles} == {1, 2, 3}
    assert {k for p in poles for k in p} == {0, 1, 2, 3}


@pytest.mark.parametrize("f", [
    presets.example62(),
    rotated_example62(1.234),
    sm.compose(presets.example62(), presets.example62()),
], ids=["example62", "rotated", "composite"])
def test_snapped_leading_coefficient(f):
    # maps whose stages fix the attracting point: StageLoop snapped each
    # stage's b_d to 0, so that huge orbits stay stable; the kernel's stages
    # fix infinity by construction and agree with it out to |w| = 1e280
    omega = dyn.classify(f).dw_point
    assert StageLoop(f, omega).snapped
    # measured: 2.0, 2.2 and 3.1 ulps
    assert worst_relative_gap(f, omega, halfplane_points(400, 5, 2.0, 280.0)) <= 8 * ULP


# worst relative error against the oracle over 2,000 points with |w| from
# 1e-3 to 1e8; measured (kernel, StageLoop) in the comments
@pytest.mark.parametrize("name, f, omega", [
    ("example62", presets.example62(), 1.0),  # 4.9e-16, 7.8e-16
    ("example61", presets.example61(0.6), 1.0),  # 2.6e-15, 3.5e-15
    ("composite", COMPOSITE, None),  # 8.7e-16, 7.0e-14
])
def test_kernel_is_no_worse_than_the_stage_loop(name, f, omega):
    omega = dyn.classify(f).dw_point if omega is None else omega
    hp, ref = sm.HalfPlaneConjugate(f, omega), StageLoop(f, omega)
    kernel = loop = 0.0
    with mpmath.workdps(40):
        exact = mp_transport(f, omega)
        for w in halfplane_points(2000, 3):
            value = exact(mpmath.mpc(w))
            kernel = max(kernel, float(abs(hp.apply(w) - value) / abs(value)))
            loop = max(loop, float(abs(ref.apply(w) - value) / abs(value)))
    assert kernel <= loop


def test_seeded_stages_are_no_worse_than_the_stage_loop():
    # measured: worst 5.9e-15 against 8.2e-15, median 8.4e-17 against 2.6e-16
    rng = np.random.default_rng(22)
    kernel, loop = [], []
    for _ in range(6):
        f, omega = random_stage(rng), cmath.exp(2j * math.pi * rng.random())
        hp, ref = sm.HalfPlaneConjugate(f, omega), StageLoop(f, omega)
        with mpmath.workdps(40):
            exact = mp_transport(f, omega)
            for w in halfplane_points(400, int(rng.integers(1 << 30))):
                value = exact(mpmath.mpc(w))
                kernel.append(float(abs(hp.apply(w) - value) / abs(value)))
                loop.append(float(abs(ref.apply(w) - value) / abs(value)))
    assert max(kernel) <= max(loop)
    assert np.median(kernel) <= np.median(loop)


def test_mixed_map_against_the_stage_loop():
    """The mixed map's first stage, ((z + 1/2) / (1 + z/2))^3 at omega = 1,
    is conjugate-symmetric: its poles +-i t pair up as 2c / (w + t^2 / w),
    and F(0) = 0.  Unpaired, the terms c / (w -+ i t) are each about 0.8
    near w = 0 and cancel (2.7e-14 for |w| in [1e-3, 1e-2]).  Over the
    whole range the kernel is the more accurate on average but its worst
    error is above StageLoop's (1.3 to 2.4 times on eight other seeds): the
    worst points lie where the first stage's value is near the second
    stage's zero +-i/2, which scales the first stage's rounding by up to 10,
    and StageLoop's Horner form of that stage, whose coefficients 6.75,
    2.25 and 0.25 are exact, rounds less there (0.46 against 0.89 ulps on
    average)."""
    hp, ref = sm.HalfPlaneConjugate(MIXED, 1.0), StageLoop(MIXED, 1.0)
    # a = 1 drops from the line: w = w + i b + p / (w + q / w)
    assert transport._stage_arguments(*clark_stage(MIXED.stages[0].zeros, 1.0))[0] == (0, 1, 0, -1, 0)

    def errors(points):
        with mpmath.workdps(40):
            exact = mp_transport(MIXED, 1.0)
            values = [exact(mpmath.mpc(w)) for w in points]
        return (np.array([float(abs(step(w) - v) / abs(v)) for w, v in zip(points, values)])
                for step in (hp.apply, ref.apply))

    # measured: 5.8e-16 against 6.4e-16, and 2.5e-16 against 7.0e-16
    for low, high in ((-3.0, -2.0), (0.0, 8.0)):
        kernel, loop = errors(halfplane_points(1000, 4, low, high))
        assert kernel.max() <= loop.max(), (low, high)
    # measured: worst 1.87e-15 against 1.34e-15, mean 0.49 against 0.77 ulps
    kernel, loop = errors(halfplane_points(2000, 3))
    assert kernel.mean() <= loop.mean()
    assert kernel.max() <= 2.5 * loop.max()


def test_form_at_zero_keeps_the_digits_of_a_zero_near_the_circle():
    """A zero 1e-8 inside the circle, 1e-3 from omega = 1, puts a half-plane
    zero at about 0.02 + 2000i: a = 2.83, b = -320 and one pole at 1887
    with c = 6e5, whose c / t cancels b at w = 0, where F(0) is 1e-5 i.
    The sum form alone was off by 1.5e-7 near w = 0 (by 2.7e-10 with the
    remainders of Psi counted in quarter turns); StageLoop is off by 5.2e-13."""
    f = sm.FiniteBlaschkeProduct(1.0, ((-0.5, 1), ((1 - 1e-8) * cmath.exp(1e-3j), 1)))
    a, b, c, t, f0 = clark_stage(f.zeros, 1.0)
    assert transport._stage_arguments(a, b, c, t, f0)[0] == (1, 0, 1, -1, 1)
    hp, ref = sm.HalfPlaneConjugate(f, 1.0), StageLoop(f, 1.0)
    kernel = loop = 0.0
    with mpmath.workdps(40):
        exact = mp_transport(f, 1.0)
        assert abs(f0 - float(mpmath.im(exact(mpmath.mpc(0))))) <= 4 * ULP * abs(f0)
        for w in halfplane_points(200, 7, -3.0, 6.0):
            value = exact(mpmath.mpc(w))
            kernel = max(kernel, float(abs(hp.apply(w) - value) / abs(value)))
            loop = max(loop, float(abs(ref.apply(w) - value) / abs(value)))
    # measured: 3.4e-16 against 5.2e-13
    assert kernel <= 4e-16 and kernel <= loop


def test_form_at_zero_next_to_a_pair():
    # F(w) = w + 0.3i + 0.5 / (w + 4 / w) + 0.2 / (w - 5i): a pair at +-2i
    # and one pole at 5i, whose form at 0 is F(0) + w (1 - 0.04i / (w - 5i))
    # + the pair, with F(0) = 0.34i; a = 1 drops from the sum form, and the
    # form at 0 keeps it
    step = one_step(transport._kernel(((0, 1, 1, -1, 1),))(
        1.0, 0.3j, 0.5, 4.0, 0.2, 5j, 2.5, 0.34j, -0.04j))
    rng = np.random.default_rng(4)
    for w in (rng.uniform(0, 5, 50) + 1j * rng.uniform(-5, 5, 50)).tolist():
        exact = w + 0.3j + 0.25 / (w - 2j) + 0.25 / (w + 2j) + 0.2 / (w - 5j)
        assert abs(step(w) - exact) <= 1e-14 * abs(exact), w


@pytest.mark.parametrize("seed", range(8))
def test_value_at_zero(seed):
    # Im F(0) from the zeros is b + sum c_k / t_k, from the Clark form
    rng = np.random.default_rng(seed)
    f, alpha = random_stage(rng), cmath.exp(2j * math.pi * rng.random())
    a, b, c, t, f0 = clark_stage(f.zeros, alpha)
    if 0.0 in t:
        return
    clark = b + sum(ck / tk for ck, tk in zip(c, t))
    assert f0 == pytest.approx(clark, rel=1e-9, abs=1e-12 * (abs(b) + sum(ck / abs(tk) for ck, tk in zip(c, t))))


def test_clark_coefficients_of_the_presets():
    # F(w) = w + 1/(4w), exactly
    assert clark_stage(presets.example62().zeros, 1.0) == (1.0, 0.0, [0.25], [0.0], -math.inf)
    # F(w) = w - i, exactly, from the classified (not exactly 1) omega
    omega = dyn.classify(presets.translation()).dw_point
    assert clark_stage(presets.translation().zeros, omega) == (1.0, -1.0, [], [], -1.0)
    # a = (1 + alpha) / (2 (1 - alpha)) = 1.99999999999999986... for the
    # float alpha = 0.6: 1.9999999999999998 is nearer, but 2 is within an
    # ulp too, and the power of two is taken
    a, b, c, t, _ = clark_stage(presets.example61(0.6).zeros, 1.0)
    with mpmath.workdps(40):
        alpha = mpmath.mpf(0.6)
        exact = (1 + alpha) / (2 * (1 - alpha))
        assert float(exact) == 1.9999999999999998 and abs(2 - exact) < math.ulp(1.9999999999999998)
    assert a == 2.0
    assert (b, t) == (0.0, [0.0]) and abs(c[0] - 0.125) <= 2 * ULP * 0.125
    # with no power of two that near, a is correctly rounded
    with mpmath.workdps(40):
        alpha = mpmath.mpf(0.7)
        assert clark_stage(presets.example61(0.7).zeros, 1.0)[0] == float(
            (1 + alpha) / (2 * (1 - alpha)))


@pytest.mark.parametrize("seed", range(8))
def test_clark_points_and_weights(seed):
    """Each pole i t_k is the Cayley image of a Clark point, where
    conj(beta) s(alpha zeta) = 1, and c_k is its Aleksandrov-Clark weight
    (1 + t_k^2) / |s'(alpha zeta)|; a is 1 / |s'(alpha)|."""
    rng = np.random.default_rng(seed)
    f, alpha = random_stage(rng), cmath.exp(2j * math.pi * rng.random())
    a, b, c, t, _ = clark_stage(f.zeros, alpha)
    beta = sm.evaluate(f, alpha)
    assert len(t) == len(c) == f.degree - 1 and a > 0 and all(ck > 0 for ck in c)
    assert t == sorted(t, reverse=True)
    assert a == pytest.approx(1.0 / abs(sm.derivative(f, alpha)), rel=1e-14)
    for tk, ck in zip(t, c):
        zeta = (1j * tk - 1) / (1j * tk + 1)
        assert abs(beta.conjugate() * sm.evaluate(f, alpha * zeta) - 1) < 1e-13
        weight = (1 + tk * tk) / abs(sm.derivative(f, alpha * zeta))
        assert ck == pytest.approx(weight, rel=1e-13)


def test_steps_stay_in_the_half_plane():
    # Re F(w) = a Re w + sum c_k Re w / |w - i t_k|^2 is a sum of positive
    # terms, and a pair's p / (w + q / w) has Re (w + q / w) > 0, so even
    # next to the imaginary axis a step stays in the plane
    f = sm.CompositeMap((random_stage(np.random.default_rng(3)), presets.example61(0.6)))
    for hp in (sm.HalfPlaneConjugate(f, 1.0), sm.HalfPlaneConjugate(MIXED, 1.0)):
        for x in (1e-300, 1e-200, 1e-100, 1e-30, 1e-12):
            for y in np.linspace(-50.0, 50.0, 401).tolist():
                assert hp.apply(complex(x, y)).real > 0.0, (x, y)


def test_walk_takes_the_step_bit_for_bit():
    rng = np.random.default_rng(5)
    for _ in range(20):
        f = random_map(rng)
        hp = sm.HalfPlaneConjugate(f, cmath.exp(2j * math.pi * rng.random()))
        for w in halfplane_points(10, int(rng.integers(1 << 30)), high=100.0):
            orbit, want = [w], [w]
            assert hp.walk(orbit, 5) is None
            for _ in range(5):
                want.append(hp.apply(want[-1]))
            assert np.array(orbit).view(np.int64).tolist() == np.array(want).view(np.int64).tolist()


def test_walk_returns_the_step_error():
    # example62's stage has its pole at w = 0
    hp = sm.HalfPlaneConjugate(presets.example62(), 1.0)
    with pytest.raises(ZeroDivisionError):
        hp.apply(0j)
    orbit = [0j]
    error = hp.walk(orbit, 3)
    assert isinstance(error, ZeroDivisionError) and orbit == [0j]
    # the pole of the second stage, reached after one step
    hp = sm.HalfPlaneConjugate(sm.compose(presets.example62(), presets.example62()), 1.0)
    orbit = [0.5j]
    assert isinstance(hp.walk(orbit, 3), ZeroDivisionError) and orbit == [0.5j]


def test_apply_is_one_walk_step():
    # the kernel compiles walk alone, and apply walks one point
    rng = np.random.default_rng(6)
    for _ in range(10):
        f = random_map(rng)
        hp = sm.HalfPlaneConjugate(f, cmath.exp(2j * math.pi * rng.random()))
        factory = transport._kernel(tuple(shape for _, shape, _ in stage_arguments(f, hp.omega)))
        assert [c for c in factory.__code__.co_consts if hasattr(c, "co_name")] == [hp.walk.__code__]
        for w in halfplane_points(20, int(rng.integers(1 << 30)), high=100.0):
            orbit = [w]
            assert hp.walk(orbit, 1) is None
            assert np.array([hp.apply(w)]).view(np.int64).tolist() == np.array(
                orbit[1:]).view(np.int64).tolist()
    # at example62's pole w = 0, apply raises the error walk returns
    hp = sm.HalfPlaneConjugate(presets.example62(), 1.0)
    error = hp.walk([0j], 1)
    assert isinstance(error, ZeroDivisionError)
    with pytest.raises(ZeroDivisionError) as raised:
        hp.apply(0j)
    assert str(raised.value) == str(error)


def test_translation_steps_exactly():
    # the translation preset and its wire form are w -> w - i, with no poles
    wire = presets.map_from_dict(presets.map_to_dict(presets.translation()))
    for f in (presets.translation(), wire):
        hp = sm.HalfPlaneConjugate(f, dyn.classify(f).dw_point)
        orbit = [3.0 + 2.0j]
        assert hp.walk(orbit, 3) is None
        assert orbit == [3.0 + 2.0j, 3.0 + 1.0j, 3.0 + 0.0j, 3.0 - 1.0j]


def test_one_kernel_per_stage_degree_sequence():
    # the kernel depends on the stage shapes: whether a = 1 drops out, pole
    # pairs, other poles (one less than the degree in all), which of them
    # is at t = +0.0 and whether the stage has a form at 0
    a = sm.HalfPlaneConjugate(rotated_example62(0.3), cmath.exp(0.3j))
    b = sm.HalfPlaneConjugate(rotated_example62(1.1), cmath.exp(1.1j))
    assert a.walk.__code__ is b.walk.__code__ and a.apply(2.0) != b.apply(2.0)
    # example61 keeps its a = 2: a kernel of its own, whatever its alpha
    hyper = sm.HalfPlaneConjugate(presets.example61(0.6), 1.0)
    assert hyper.walk.__code__ is not a.walk.__code__
    other = sm.HalfPlaneConjugate(presets.example61(0.5), 1.0)
    assert other.walk.__code__ is hyper.walk.__code__ and other.apply(2.0) != hyper.apply(2.0)
    assert transport._kernel(((0, 0, 1, -1, 0),)) is transport._kernel(((0, 0, 1, -1, 0),))
    # example62's pole is at t = +0.0 at omega = 1, and at t != 0 rotated
    e62 = sm.HalfPlaneConjugate(presets.example62(), 1.0)
    assert e62.walk.__code__ is not a.walk.__code__
    # this stage pairs its poles at omega = 1, not at e^{0.3i}: same
    # degree, another kernel
    odd = sm.HalfPlaneConjugate(sm.FiniteBlaschkeProduct(1.0, ((-0.5, 3),)), 1.0)
    skew = sm.HalfPlaneConjugate(sm.FiniteBlaschkeProduct(1.0, ((-0.5, 3),)), cmath.exp(0.3j))
    assert odd.walk.__code__ is not skew.walk.__code__
    c = sm.HalfPlaneConjugate(sm.compose(presets.example61(0.6), presets.example62()), 1.0)
    assert c.walk.__code__ is not a.walk.__code__
    # coefficients are arguments, not constants of the generated source:
    # the constants are orbit[-1]'s index and None
    for fn in (a.walk, c.walk, odd.walk):
        assert set(fn.__code__.co_consts) <= {None, -1}


def stage_arguments(f, omega):
    """(a, shape, arguments) of each stage of HalfPlaneConjugate(f, omega),
    from _stage_arguments."""
    out = []
    for stage, sums in zip(sm._stages(f), sm._clark_chain(f, omega)):
        a, b, c, t, f0 = transport._clark_stage(stage.zeros, sums)
        out.append((a, *transport._stage_arguments(a, b, c, t, f0)))
    return out


def one_step(walk):
    """The step of a kernel's walk: one point walked, its error raised."""
    def step(w):
        orbit = [w]
        if (error := walk(orbit, 1)) is not None:
            raise error
        return orbit[1]

    return step


def unfolded_kernel(stages):
    """The walk of the kernel of stages given as stage_arguments gives them,
    with nothing folded: every stage line multiplies by a, which
    _stage_arguments drops where a = 1, adds i b and subtracts i t of every
    pole, which it drops where t = +0.0."""
    shapes, args = [], []
    for a, (scale, pairs, single, zero, origin), folded in stages:
        folded = list(folded)
        if zero >= 0:
            # c and i t of each other pole follow a (where kept), i b and
            # the pairs' p and q
            folded.insert(int(scale or origin) + 2 + 2 * pairs + 2 * zero, complex(0.0, 0.0))
        if not (scale or origin):
            folded.insert(0, complex(a, 0.0))
        shapes.append((1, pairs, single, -1, origin))
        args += folded
    return transport._kernel(tuple(shapes))(*args)


# +-0, subnormals, huge and non-finite parts; each part from this list
SPECIAL_PARTS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e-200, -1e-20, 0.3, 1.0, -2.5, 7.0,
                 -1e10, 1e100, 1e200, -1e300, 1.7e308, -1.7e308, math.inf, -math.inf, math.nan]


def contract_points(seed):
    """The special grid and 4,000 points whose parts have random signs and
    magnitudes 10^U(-320, 308.2), so some parts are subnormal or 0."""
    rng = np.random.default_rng(seed)
    parts = np.where(rng.random((4000, 2)) < 0.3, -1.0, 1.0) * 10.0 ** rng.uniform(-320, 308.2, (4000, 2))
    return [complex(x, y) for x in SPECIAL_PARTS for y in SPECIAL_PARTS] + [
        complex(x, y) for x, y in parts.tolist()]


def outcome(step, w):
    try:
        return step(w)
    except ArithmeticError as exc:
        return type(exc)


def part_difference(u, v):
    """None where the parts have one bit pattern, "zero sign" for zeros of
    opposite sign, "nan" for a NaN part u against another v (a NaN of
    another payload, an infinity or a number)."""
    if np.float64(u).view(np.int64) == np.float64(v).view(np.int64):
        return None
    if u == v == 0.0:
        return "zero sign"
    return "nan" if math.isnan(u) else f"{u!r} against {v!r}"


@pytest.mark.parametrize("name, f, omega", [
    # w = w + i b + c / w, with b = 0 and t = +0.0
    ("example62", presets.example62(), 1.0),
    # w = w - i
    ("translation", presets.translation(), None),
    ("rotated-example62", rotated_example62(0.84), None),
    # a = 1 next to a pair
    ("cubic", sm.FiniteBlaschkeProduct(1.0, ((-0.5, 3),)), 1.0),
    ("ci-composite", COMPOSITE, None),
    ("mixed", MIXED, 1.0),
    ("example62-twice", sm.compose(presets.example62(), presets.example62()), 1.0),
    # example62 folds, example61 keeps its a = 2 and drops its pole's t = +0.0
    ("example61-after-example62", sm.compose(presets.example61(0.6), presets.example62()), 1.0),
    # a rotation is F(w) = w + i 0 at its frames
    ("rotation", sm.FiniteBlaschkeProduct(1j, ((0.0, 1),)), 1.0),
    # a pair and a pole at t = +0.0
    ("quartic", sm.FiniteBlaschkeProduct(1.0, ((-0.5, 2), (0.3, 2))), 1.0),
    # the form at 0 next to a pair, and a pole at t = -0.0, below
    ("form-at-zero", None, None),
    ("pole-at-minus-zero", None, None),
])
def test_folded_kernel_keeps_the_bits_of_the_unfolded_one(name, f, omega):
    """The contract of transport._stage_lines: on every w with finite parts
    whose unfolded value is finite, the folded kernel returns the unfolded
    kernel's bits.  Elsewhere a part may differ only where the unfolded part
    is NaN (1 w is NaN - inf i for w = -inf i, which a first stage can give
    a second), and no error moves."""
    if name == "form-at-zero":
        # test_form_at_zero_next_to_a_pair's stage: a = 1 drops from the sum
        # form only, so both kernels take the same arguments
        args = (1.0, 0.3j, 0.5, 4.0, 0.2, 5j, 2.5, 0.34j, -0.04j)
        walk, unfolded = (transport._kernel((shape,))(*args)
                          for shape in ((0, 1, 1, -1, 1), (1, 1, 1, -1, 1)))
    elif name == "pole-at-minus-zero":
        # example62's line with its pole at t = -0.0: w - i t adds 0.0 to
        # Im w, so the pole keeps its i t, and only a = 1 drops
        shape, args = transport._stage_arguments(1.0, 0.0, [0.25], [-0.0], -math.inf)
        walk = transport._kernel((shape,))(*args)
        unfolded = transport._kernel(((1, 0, 1, -1, 0),))(1.0, 0j, 0.25, complex(0.0, -0.0))
        assert shape == (0, 0, 1, -1, 0)
    else:
        omega = dyn.classify(f).dw_point if omega is None else omega
        walk, unfolded = sm.HalfPlaneConjugate(f, omega).walk, unfolded_kernel(stage_arguments(f, omega))
    assert walk.__code__ is not unfolded.__code__  # something folds
    step, reference = one_step(walk), one_step(unfolded)
    for w in contract_points(len(name)):
        u, v = outcome(reference, w), outcome(step, w)
        if isinstance(u, type) or isinstance(v, type):
            assert u is v, (w, u, v)
            continue
        diffs = {part_difference(u.real, v.real), part_difference(u.imag, v.imag)} - {None}
        if cmath.isfinite(w) and cmath.isfinite(u):
            assert not diffs, (w, u, v)
        assert diffs <= {"nan"}, (w, u, v)


@pytest.mark.parametrize("f", [
    rotated_example62(0.84),
    sm.compose(rotated_example62(0.84), rotated_example62(0.84)),
], ids=["rotated-example62", "composite"])
def test_long_walk(f):
    omega = dyn.classify(f).dw_point
    hp, ref = sm.HalfPlaneConjugate(f, omega), StageLoop(f, omega)
    orbit = [hp.to_halfplane(0.3 + 0.2j)]
    assert hp.walk(orbit, 100000) is None
    w = orbit[0]
    for _ in range(100000):
        w = ref.apply(w)
    # measured: 3.1e-12 and 7.3e-12 relative at n = 100,000
    assert abs(orbit[-1] - w) <= 3e-11 * abs(w)


def kernel_with_float_coefficients(f, omega):
    """The walk of the kernel of HalfPlaneConjugate(f, omega) fed a, p,
    q and c as floats, which Python 3.10 to 3.13 promote to complex(x,
    0.0), and the names and arguments _stage_arguments gives it."""
    shapes, names, args, alpha = [], [], [], omega
    for s, stage in enumerate(sm._stages(f)):
        shape, stage_args = transport._stage_arguments(*clark_stage(stage.zeros, alpha))
        shapes.append(shape)
        names += transport._stage_names(s, *shape)
        args += stage_args
        alpha = sm._eval_fbp(stage, alpha)
    floats = [v.real if name[0] in "apqc" else v for name, v in zip(names, args)]
    return transport._kernel(tuple(shapes))(*floats), names, args


@pytest.mark.skipif(sys.version_info >= (3, 14), reason=(
    "Python 3.14 no longer promotes a float operand to complex(x, 0.0), "
    "so the float-coefficient kernel rounds otherwise"))
@pytest.mark.parametrize("name, f", [
    ("example62", presets.example62()),
    ("example61", presets.example61(0.6)),
    ("translation", presets.translation()),
    ("ci-composite", COMPOSITE),
    ("mixed", MIXED),
])
def test_complex_coefficients_keep_the_bits_of_promotion(name, f):
    # Python 3.10 to 3.13 promote a float operand x of complex arithmetic
    # to complex(x, 0.0), so passing that value changes no bit
    omega = dyn.classify(f).dw_point
    hp = sm.HalfPlaneConjugate(f, omega)
    walk, names, args = kernel_with_float_coefficients(f, hp.omega)
    assert all(isinstance(v, float) == (n[0] == "r") for n, v in zip(names, args)), names
    if name == "mixed":
        # the degree-3 stage takes the pairs branch
        assert any(n[0] == "p" for n in names)
    orbit, want = [hp.to_halfplane(0.0)], [hp.to_halfplane(0.0)]
    assert hp.walk(orbit, 100000) is None and walk(want, 100000) is None
    assert np.array(orbit).view(np.int64).tolist() == np.array(want).view(np.int64).tolist()
    got = np.array([hp.apply(w) for w in orbit])
    step = one_step(walk)
    assert got.view(np.int64).tolist() == np.array([step(w) for w in orbit]).view(np.int64).tolist()
