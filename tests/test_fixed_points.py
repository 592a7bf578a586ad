"""The algebraic classification of Blaschke-type maps (one fixed-point
polynomial, a and shift from the boundary jet) against maps with a known
half-plane form and against references that share none of its root
finding: a disk-orbit classifier kept here as a test-only function (orbit
from 0, Newton with central-difference derivatives, the Richardson boundary
quotient) and an mpmath solve of the fixed-point quadratic of degree-1
maps."""

import cmath

import mpmath
import numpy as np
import pytest

from diskdyn import presets, properties
from diskdyn import dynamics as dyn
from diskdyn import selfmap as sm


def shifted_map(beta, a=1.0):
    """The degree-2 product conjugate to F(w) = w/a + i beta + 1/w.

    With w = (1 + z)/(1 - z), f = (F(w) - 1)/(F(w) + 1), whose zeros are the
    roots of w^2/a + (i beta - 1) w + 1 = 0; gamma is fixed by f(0), which is
    F(1) = 1/a + 1 + i beta carried back to the disk, and each zero factor is
    a^2/|a| at 0.  For a < 1 the map is attracted to 1 with derivative a, and
    a second, repelling boundary fixed point sits about 2 (1 - a) from it.
    """
    zeros = [(complex((w - 1) / (w + 1)), 1) for w in np.roots([1 / a, 1j * beta - 1, 1])]
    f0 = (1 / a + 1j * beta) / (1 / a + 1j * beta + 2)
    gamma = f0 / np.prod([c * c / abs(c) for c, _ in zeros])
    return sm.FiniteBlaschkeProduct(gamma / abs(gamma), zeros)


def mpmath_fixed_point(f, z0):
    """The fixed point of the product f (as built, in floats) nearest z0, by
    40-digit mpmath Newton on its factored form."""
    with mpmath.workdps(40):
        def moved(z):
            v = mpmath.mpc(f.gamma)
            for c, mult in f.zeros:
                c = mpmath.mpc(c)
                v *= (-(c / abs(c)) * (z - c) / (1 - mpmath.conj(c) * z)) ** mult
            return v - z

        return complex(mpmath.findroot(moved, mpmath.mpc(z0)))


def rotated_example62(t):
    """e^{it} f(e^{-it} z) for f = example62: attracting point e^{it}."""
    return sm.FiniteBlaschkeProduct(cmath.exp(-3j * t), ((-cmath.exp(1j * t) / 3.0, 2),))


def plain_copy(f):
    """f as a plain callable.  It evaluates without validating |z|, since
    central differences step across the circle."""
    stages = sm._stages(f)

    def call(z):
        for stage in stages:
            z = sm._eval_fbp(stage, z)
        return z

    return call


def central_jet(call, z):
    """Value, first and second derivative of a callable at z by central
    differences of step 1e-6."""
    h = 1e-6
    fp = complex(call(z + h))
    fm = complex(call(z - h))
    fz = complex(call(z))
    return fz, (fp - fm) / (2 * h), (fp - 2 * fz + fm) / h ** 2


def boundary_refine(call, omega):
    """Newton on the circle map theta -> arg(e^-itheta f(e^itheta)).

    The attracting point is a simple zero for hyperbolic contact and a double
    zero for parabolic contact; the step switches to the double-root form
    when the derivative degenerates.
    """
    theta = cmath.phase(omega)
    for _ in range(60):
        z = cmath.exp(1j * theta)
        v, d1, _ = central_jet(call, z)
        err = cmath.phase(v / z)
        if err == 0.0:
            break
        slope = (z * d1 / v).real - 1.0
        if abs(slope) > 1e-6:
            step = err / slope
            if abs(slope) < 0.5:
                step *= 2.0  # near-parabolic: double zero of the angle error
        else:
            break
        if abs(step) > 0.3:
            break
        theta -= step
        if abs(step) < 1e-15:
            break
    return cmath.exp(1j * theta) if theta != 0.0 else 1.0 + 0.0j


def orbit_classify(f):
    """Classify f from its disk orbit, with no fixed-point polynomial.

    The orbit from 0 runs for at most 10000 steps.  Interior convergence
    (|z| <= 0.999) is refined by Newton on f(z) - z with central-difference
    derivatives; boundary escape is estimated from the mean of the last 16
    normalized iterates, polished on the unit circle, and confirmed by the
    extrapolated boundary quotient.  Inside the disk evaluate gives
    plain_copy's values, so the orbit and the quotient evaluate f itself.
    """
    call = plain_copy(f)
    z, tail, settled = 0.0 + 0.0j, [], False
    for _ in range(10000):
        z, z_prev = sm.evaluate(f, z), z
        settled = abs(z) > 1.0 - 1e-13 or abs(z - z_prev) < 1e-9
        if settled:
            break
        if abs(z) > 0.5:
            tail = tail[-15:] + [z / abs(z)]
    if settled and abs(z) <= 0.999:  # else it settled on the boundary
        for _ in range(60):
            v, d1, _ = central_jet(call, z)
            den = d1 - 1.0
            if den == 0:
                break
            step = (v - z) / den
            z = z - step
            if abs(step) < 1e-12:
                break
        return dyn.MapClass(dyn.ELLIPTIC_INTERIOR, z)
    guess = sum(tail) / len(tail) if tail else z
    # no convergence seen: accept only clear boundary drift evidence
    if not settled and not (
            abs(z) > 0.9 and len(tail) == 16 and max(abs(t - guess) for t in tail) < 0.05):
        raise dyn.ClassificationError(f"orbit did not settle after 10000 iterations (last z = {z!r})")
    omega = boundary_refine(call, guess / abs(guess))
    return dyn._attracting(f, [(sm.angular_derivative(f, omega).angular_derivative, omega)])


def mobius_fixed_points(f):
    """Both fixed points of a degree-1 map, from its composed 2x2 matrix
    solved in mpmath."""
    m = mpmath.eye(2)
    for stage in sm._stages(f):
        (a, _), = stage.zeros
        a = mpmath.mpc(a)
        c = mpmath.mpc(stage.gamma) * (-a / abs(a) if a != 0 else 1)
        m = mpmath.matrix([[c, -c * a], [-mpmath.conj(a), 1]]) * m
    # (p z + q)/(r z + s) = z  <=>  r z^2 + (s - p) z - q = 0
    p, q, r, s = m[0, 0], m[0, 1], m[1, 0], m[1, 1]
    return [complex(z) for z in mpmath.polyroots([r, s - p, -q], extraprec=50)]


class TestShiftFamily:
    @pytest.mark.parametrize("beta", [1.0, 0.3, 1e-3, 0.0])
    def test_map_is_the_half_plane_form(self, beta):
        f = shifted_map(beta)
        for z in (0.0, 0.3 - 0.4j, -0.7j):
            w = (1 + z) / (1 - z)
            big_w = w + 1j * beta + 1 / w
            assert sm.evaluate(f, z) == pytest.approx((big_w - 1) / (big_w + 1), abs=1e-14)

    @pytest.mark.parametrize("beta", [1.0, 0.3, 1e-3, 0.0])
    def test_shift_and_step(self, beta):
        f = shifted_map(beta)
        cls = dyn.classify(f)
        assert cls.kind == dyn.PARABOLIC
        assert abs(cls.dw_point - 1.0) < 1e-12
        assert abs(cls.shift - 1j * beta) < 1e-10
        expected = "positive" if beta > 0 else "zero"
        assert cls.step == expected
        assert dyn.hyperbolic_step(f, 0.0, 10000).verdict == expected

    @pytest.mark.parametrize("a", [0.9998, 1 - 5e-5, 1 - 1e-5])
    def test_nearby_repelling_point_is_kept_apart(self, a):
        # the two boundary fixed points near 1 are simple roots, 4e-4 to 2e-5
        # apart; their midpoint is a critical point of P, not a fixed point.
        # The attracting one has condition number 1/(1 - a): the float-built
        # map fixes a point up to 8e-12 from 1, so omega is compared with
        # that point and both with rounding amplified by 1/(1 - a)
        f = shifted_map(1.0, a)
        cls = dyn.classify(f)
        ref = mpmath_fixed_point(f, 1.0)
        bound = 1e-15 / (1 - a)
        assert abs(ref - 1.0) < bound
        assert cls.kind == (dyn.HYPERBOLIC if 1 - a > dyn.PARABOLIC_BAND else dyn.PARABOLIC)
        assert abs(cls.dw_point - ref) < bound
        assert abs(cls.angular_derivative - a) < bound
        assert cls.step == "positive"

    def test_example62_composed_with_itself_has_zero_step(self):
        f = sm.compose(presets.example62(), presets.example62())
        cls = dyn.classify(f)
        assert (cls.kind, cls.dw_point, cls.step) == (dyn.PARABOLIC, 1.0, "zero")
        assert abs(cls.shift) < 1e-12

    def test_hyperbolic_composite_multiplies_derivatives(self):
        f = sm.compose(presets.example61(0.6), presets.example61(0.5))
        cls = dyn.classify(f)
        assert (cls.kind, cls.step) == (dyn.HYPERBOLIC, "positive")
        assert abs(cls.dw_point - 1.0) < 1e-15
        assert abs(cls.angular_derivative - 1 / 3) < 1e-15


class TestReferences:
    @pytest.fixture(scope="class")
    def random_maps(self):
        rng = np.random.default_rng(987654321)
        maps = [properties._random_blaschke(rng) for _ in range(300)]
        maps += [sm.compose(properties._random_blaschke(rng, 3),
                            properties._random_blaschke(rng, 3)) for _ in range(50)]
        return maps

    def test_degree_one_against_mpmath(self, random_maps):
        moebius = [f for f in random_maps if f.degree == 1]
        assert len(moebius) > 50
        for f in moebius:
            cls = dyn.classify(f)
            fixed = mobius_fixed_points(f)
            assert min(abs(z - cls.dw_point) for z in fixed) < 1e-12
            interior = [z for z in fixed if abs(z) < 1 - 1e-9]
            assert (cls.kind == dyn.ELLIPTIC_INTERIOR) == bool(interior)

    def test_higher_degree_against_the_orbit_classifier(self, random_maps):
        compared = 0
        for f in random_maps:
            if f.degree == 1:
                continue
            try:
                ref = orbit_classify(f)
            except dyn.ClassificationError:
                continue  # the orbit did not settle on a fixed point
            cls = dyn.classify(f)
            assert cls.kind == ref.kind
            assert abs(cls.dw_point - ref.dw_point) < 1e-12
            compared += 1
        assert compared >= 250

    @pytest.mark.parametrize("t", np.linspace(0.3, 6.0, 12))
    def test_rotated_example62(self, t):
        cls = dyn.classify(rotated_example62(t))
        assert (cls.kind, cls.step) == (dyn.PARABOLIC, "zero")
        assert abs(cls.dw_point - cmath.exp(1j * t)) < 1e-12
        assert abs(cls.angular_derivative - 1.0) < 1e-12
        assert abs(cls.shift) < 1e-12

    def test_degree_64_composite(self):
        # six copies of example62: 65 roots, of which many spurious ones sit
        # well inside the circle and must fail the fixed-point check
        f = sm.CompositeMap((presets.example62(),) * 6)
        cls = dyn.classify(f)
        assert (cls.kind, cls.dw_point, cls.step) == (dyn.PARABOLIC, 1.0, "zero")
        assert abs(cls.angular_derivative - 1.0) < 1e-12
