import cmath
import math

import numpy as np
import pytest

from diskdyn import abel
from diskdyn import dynamics as dyn
from diskdyn import presets
from diskdyn import selfmap as sm
from diskdyn.geometry import Horodisk, halfplane_pseudo_hyperbolic, julia_quotient

from walk_stub import opaque_kernel


def parabolic_closed_form(x):
    return (1 - x) ** 2 / (9 * x * x + 14 * x + 9)


class TestDenjoyWolff:
    @pytest.mark.parametrize("alpha", [0.4, 0.5, 0.75])
    def test_hyperbolic_family_attracts_to_one(self, alpha):
        cls = dyn.denjoy_wolff(presets.example61(alpha))
        assert cls.dw_point == pytest.approx(1.0, abs=1e-9)
        assert cls.kind == dyn.HYPERBOLIC

    def test_parabolic_member(self):
        cls = dyn.denjoy_wolff(presets.example62())
        assert cls.kind == dyn.PARABOLIC
        assert cls.dw_point == 1.0

    def test_fast_contraction_still_lands_on_the_boundary(self):
        # a = 0.01: the orbit converges in a handful of steps, well before
        # a full direction window accumulates
        cls = dyn.denjoy_wolff(presets.example61(0.99))
        assert cls.kind == dyn.HYPERBOLIC
        assert cls.dw_point == pytest.approx(1.0, abs=1e-9)
        assert cls.angular_derivative == pytest.approx(2 * 0.01 / 1.99, abs=1e-6)

    def test_square_map_elliptic(self):
        cls = dyn.denjoy_wolff(presets.power_map(2))
        assert cls.kind == dyn.ELLIPTIC_INTERIOR
        assert cls.dw_point == 0

    def test_rotation_is_elliptic(self):
        rot = sm.FiniteBlaschkeProduct(cmath.exp(2.1j), ((0.0, 1),))
        cls = dyn.denjoy_wolff(rot)
        assert cls.kind == dyn.ELLIPTIC_INTERIOR
        assert abs(cls.dw_point) < 1e-12
        assert abs(cls.interior_derivative - cmath.exp(2.1j)) < 1e-12

    def test_hyperbolic_automorphism(self):
        # (z + 1/2)/(1 + z/2): fixed points at +-1, attracting at 1
        aut = sm.FiniteBlaschkeProduct(1.0, ((-0.5, 1),))
        cls = dyn.denjoy_wolff(aut)
        assert cls.kind == dyn.HYPERBOLIC
        assert cls.dw_point == pytest.approx(1.0, abs=1e-9)
        assert cls.angular_derivative == pytest.approx(1 / 3, abs=1e-6)

    def test_parabolic_automorphism(self):
        cls = dyn.denjoy_wolff(presets.translation())
        assert cls.kind == dyn.PARABOLIC
        # the double root of the fixed-point polynomial, to rounding
        assert abs(cls.dw_point - 1.0) < 1e-15
        assert cls.angular_derivative == pytest.approx(1.0, abs=1e-6)

    def test_identity_rejected(self):
        with pytest.raises(ValueError):
            dyn.denjoy_wolff(sm.identity_map())

    def test_translation_wire_form_takes_the_preset_path(self):
        # the same map read back from its wire description transports
        # through the same Clark form, w -> w - i, so its step sequence is
        # the preset's, constant and frozen from n = 16
        preset = presets.translation()
        wire = presets.map_from_dict(presets.map_to_dict(preset))
        a, b = (dyn.hyperbolic_step(f, 0.0, 10000) for f in (preset, wire))
        assert a.sequence.tobytes() == b.sequence.tobytes()
        assert a.frozen_at == b.frozen_at == 16
        assert a.sequence.max() == a.sequence.min()

    def test_elliptic_automorphism_with_offset_fixed_point(self):
        # rotation conjugated to fix p = 0.3: T(z) = (p - z)/(1 - p z) is an
        # involution, and f = T o (e^{i theta} .) o T fixes p without the
        # orbit from 0 converging
        p, theta = 0.3, 1.3
        t = lambda z: (p - z) / (1 - p * z)
        f_call = lambda z: t(cmath.exp(1j * theta) * t(z))
        zero = t(p * cmath.exp(-1j * theta))
        gamma = f_call(0) * abs(zero) / zero ** 2
        gamma /= abs(gamma)
        aut = sm.FiniteBlaschkeProduct(gamma, ((zero, 1),))
        for z in (0.0, 0.4j, -0.2):
            assert sm.evaluate(aut, z) == pytest.approx(f_call(z), abs=1e-14)
        cls = dyn.denjoy_wolff(aut)
        assert cls.kind == dyn.ELLIPTIC_INTERIOR
        assert cls.dw_point == pytest.approx(p, abs=1e-9)


class TestClassify:
    def test_hyperbolic_with_derivative(self):
        cls = dyn.classify(presets.example61(0.6))
        assert cls.kind == dyn.HYPERBOLIC
        assert cls.angular_derivative == pytest.approx(0.5, abs=1e-6)

    def test_parabolic_band(self):
        cls = dyn.classify(presets.example62())
        assert cls.kind == dyn.PARABOLIC
        assert abs(cls.angular_derivative - 1.0) < 1e-4

    def test_elliptic_interior_invariants(self):
        cls = dyn.classify(presets.power_map(2))
        assert abs(cls.dw_point) < 1
        assert cls.angular_derivative is None

    def test_repelling_contact_does_not_attract(self):
        # 1 is a boundary fixed point of z^2, with angular derivative 2
        with pytest.raises(dyn.ClassificationError, match=r"none of the boundary contacts"):
            dyn._attracting(presets.power_map(2), [1.0 + 0j])

    def test_each_map_object_is_classified_once(self, monkeypatch):
        from diskdyn import orbits

        calls = []
        original = dyn.denjoy_wolff

        def counting(f, *args, **kwargs):
            calls.append(f)
            return original(f, *args, **kwargs)

        monkeypatch.setattr(dyn, "denjoy_wolff", counting)
        f = presets.example61(0.5)
        for depth in (2, 3, 4):
            orbits.grand_orbit(f, 0.0, forward_n=4, backward_depth=depth)
        assert calls == [f]
        # an equal map written down again is a new object
        dyn.classify(presets.example61(0.5))
        assert len(calls) == 2
        # a plain callable is refused before it is classified
        with pytest.raises(TypeError, match="^not a Blaschke-type map: "):
            dyn.classify(lambda z: z / 2)
        assert len(calls) == 2

    @pytest.mark.parametrize("t", [0.0, 2.0])
    def test_the_conjugate_at_the_attracting_point_reuses_its_clark_sums(self, monkeypatch, t):
        # example61(0.6) rotated by t attracts to e^{it}, the last of its
        # three boundary contacts at t = 0 and the first at t = 2
        f = presets.example61(0.6)
        f = sm.FiniteBlaschkeProduct(cmath.exp(-3j * t), ((f.zeros[0][0] * cmath.exp(1j * t), 2),))
        calls = []
        original = sm._clark_sums

        def counting(zeros, alpha):
            calls.append(alpha)
            return original(zeros, alpha)

        monkeypatch.setattr(sm, "_clark_sums", counting)
        cls = dyn.classify(f)
        assert abs(cls.dw_point - cmath.exp(1j * t)) < 1e-15 and len(calls) == 3
        calls.clear()
        dyn.hyperbolic_step(f, 0.0, n_max=5)
        dyn.orbit_merging(f, 0.1, 0.2, n_max=5)
        assert calls == []
        # at another point, or on an equal map that is a new object, the
        # conjugate runs its own sums
        sm.HalfPlaneConjugate(f, -cls.dw_point)
        sm.HalfPlaneConjugate(sm.FiniteBlaschkeProduct(f.gamma, f.zeros), cls.dw_point)
        assert len(calls) == 2

    def test_conjugates_and_angular_derivatives_at_every_contact_reuse_the_clark_sums(
            self, monkeypatch):
        # classification takes each of example61(0.6)'s three boundary
        # contacts through selfmap._clark_chain, whose memo then serves a
        # conjugate and the angular derivative at each of them
        f = presets.example61(0.6)
        calls = []
        original = sm._clark_sums

        def counting(zeros, alpha):
            calls.append(alpha)
            return original(zeros, alpha)

        monkeypatch.setattr(sm, "_clark_sums", counting)
        dyn.classify(f)
        contacts = list(calls)
        assert len(contacts) == 3
        calls.clear()
        for omega in contacts:
            sm.HalfPlaneConjugate(f, omega)
            sm.angular_derivative(f, omega)
        assert calls == []
        assert not hasattr(dyn, "_CLARK_CHAINS")

    def test_boundary_refusal_names_the_operation(self):
        with pytest.raises(ValueError,
                           match="^orbit merging needs a boundary attracting point$"):
            dyn.orbit_merging(presets.power_map(2), 0.1, 0.2, n_max=10)


class TestHyperbolicStep:
    def test_zero_step_matches_closed_form_along_orbit(self):
        f = presets.example62()
        rep = dyn.hyperbolic_step(f, 0.0, n_max=10000)
        assert rep.verdict == "zero"
        z = 0.0
        for n in range(100):
            expected = parabolic_closed_form(z)
            assert rep.sequence[n] == pytest.approx(expected, abs=1e-12)
            z = sm.evaluate(f, z).real

    def test_hyperbolic_positive(self):
        rep = dyn.hyperbolic_step(presets.example61(0.6), 0.0, n_max=10000)
        assert rep.verdict == "positive"
        # hyperbolic tail limit (1 - a)/(1 + a) with a = 1/2
        assert rep.limit_estimate == pytest.approx(1 / 3, abs=1e-9)

    def test_translation_constant_sequence(self):
        rep = dyn.hyperbolic_step(presets.translation(), 0.0, n_max=10000)
        assert rep.verdict == "positive"
        # independent oracle: rho(w, w - i) = |i| / |w - i + conj(w)| at w = 1
        expected = 1.0 / abs(2.0 - 1.0j)
        assert rep.sequence[0] == pytest.approx(expected, abs=1e-15)
        assert float(rep.sequence.max() - rep.sequence.min()) == 0.0

    @pytest.mark.parametrize("z0", [0.0, 0.3j, -0.5])
    def test_base_point_independence(self, z0):
        assert dyn.hyperbolic_step(presets.example62(), z0, 10000).verdict == "zero"
        assert dyn.hyperbolic_step(presets.example61(0.6), z0, 10000).verdict == "positive"

    def test_sequence_non_increasing(self):
        for f in (presets.example61(0.5), presets.example62(), presets.translation()):
            rep = dyn.hyperbolic_step(f, 0.2j, n_max=3000)
            assert np.all(np.diff(rep.sequence) <= 1e-12)

    def test_elliptic_rejected(self):
        with pytest.raises(ValueError):
            dyn.hyperbolic_step(presets.power_map(2), 0.0, 100)

    def test_parabolic_maps_always_get_a_verdict(self):
        for f in (presets.example62(), presets.translation()):
            assert dyn.classify(f).kind == dyn.PARABOLIC
            rep = dyn.hyperbolic_step(f, 0.0, n_max=10000)
            assert rep.verdict in ("zero", "positive")

    def test_tangential_approach_statistic(self):
        tangential = dyn.hyperbolic_step(presets.translation(), 0.0, 2000)
        radial = dyn.hyperbolic_step(presets.example61(0.6), 0.0, 2000)
        # informational statistic: clearly tangential vs clearly radial
        assert abs(tangential.approach_angle) > 1.3
        assert abs(radial.approach_angle) < 0.01


class TestOrbitMerging:
    def test_equal_starts_vanish(self):
        seq = dyn.orbit_merging(presets.example62(), 0.2, 0.2, n_max=50)
        assert np.all(seq == 0)

    def test_zero_step_orbits_merge(self):
        seq = dyn.orbit_merging(presets.example62(), 0.0, 0.5j, n_max=2000)
        assert np.all(np.diff(seq) <= 1e-12)
        assert seq[-1] < 0.02

    def test_non_increasing_generic(self):
        seq = dyn.orbit_merging(presets.example61(0.5), 0.1, -0.3 + 0.2j, n_max=500)
        assert np.all(np.diff(seq) <= 1e-12)


class _StubConjugate:
    """A stand-in conjugate: the disk point z starts at origin + z, apply
    is the given step and walk its opaque_kernel."""

    def __init__(self, origin, step):
        self.origin = origin
        self.apply, self.walk = step, opaque_kernel(step)

    def to_halfplane(self, z):
        return self.origin + z


def _leaving_conjugate():
    """A stand-in conjugate whose orbits reach Re w = 0 on the fourth step."""
    return _StubConjugate(1.0, lambda w: w - 0.25)


def per_step_rho_sequence(hp, points, n_max):
    """The boundary orbit loop one step at a time, pair by pair: the
    reference that dynamics._orbit_rho_sequence equals bit for bit."""
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    apply = hp.apply
    consec = len(points) == 1
    ws = [hp.to_halfplane(p) for p in points]
    if consec:
        ws.append(apply(ws[0]))
    u, v = ws
    vals = np.empty(n_max + 1)
    frozen_at = None
    stagnant = 0
    for n in range(n_max + 1):
        if (not u.real > 0.0 or not v.real > 0.0
                or math.isnan(u.imag) or math.isnan(v.imag)):
            raise ValueError("half-plane points need positive real part")
        den = v + u.conjugate()
        rho = 1.0 if den == 0 else abs((v - u) / den)
        vals[n] = rho
        if n > 8:
            if rho > 0 and abs(rho - prev) <= 5e-16 * rho:
                stagnant += 1
            else:
                stagnant = 0
            if stagnant >= 8 or abs(u) > 1e250 or abs(v) > 1e250 or rho < 1e-300:
                vals[n + 1:] = rho
                frozen_at = n
                break
        prev = rho
        u, v = (v if consec else apply(u)), apply(v)
    return vals, frozen_at, u


def outcome(loop, hp, points, n_max):
    """The values (as int64 bits), frozen_at and last_w (its type and bits)
    a loop returns, or the type and message of what it raises."""
    try:
        vals, frozen_at, last_w = loop(hp, points, n_max)
    except Exception as exc:
        return type(exc), str(exc)
    return (vals.view(np.int64).tolist(), frozen_at, type(last_w),
            np.array([last_w], dtype=complex).view(np.int64).tolist())


def chunk_ends(count):
    """The first count pair totals at which the chunks of the orbit walk end."""
    ends, size = [dyn._CHUNK_MIN], dyn._CHUNK_MIN
    while len(ends) < count:
        size = min(2 * size, dyn._CHUNK_MAX)
        ends.append(ends[-1] + size)
    return ends


def first_full_chunk():
    """(start, end): the pair totals between which the first chunk of
    _CHUNK_MAX pairs is settled."""
    ends = chunk_ends(2)
    while ends[-1] - ends[-2] < dyn._CHUNK_MAX:
        ends = chunk_ends(len(ends) + 1)
    return ends[-2], ends[-1]


def _past_stagnation(w):
    """Two orbits, counting steps in their imaginary parts: v_n = 1 +
    (n + 1/2) i, and u_n = 1e-300 (1 + n i), until both jump at n = 16 to
    points where rho is still 1, u to one whose abs overflows."""
    if w.real == 1.0 and w.imag >= 0.5:
        return complex(1.0, w.imag + 1.0) if w.imag < 15.0 else complex(1.0, 1.5e308)
    return complex(1e-300, w.imag + 1e-300) if w.imag < 14.5e-300 else complex(1.5e308, 1.5e308)


def _brief_merge(k):
    """A step w -> w + 1 from Re w = 1 under which the pair (u, v) at
    Re u = k has rho < 1e-300 for one step: the orbit stalls at k, moving
    to k + 1e-300 i, and a second orbit's imaginary part shrinks by 1e-301
    the step before k and grows back by 1e301 from k."""
    scale = {k - 1.0: 1e-301, k: 1e301}
    return lambda w: complex(k, 1e-300) if w == k else complex(
        w.real + 1.0, w.imag * scale.get(w.real, 1.0))


def _jump_to_huge(huge):
    """A step w -> w + 1 from Re w = 1 under which a point at Re w = 11
    jumps to 8e249 (1 + i) if huge(w) accepts it, a point whose parts are
    within 1e250 and |w| is not, else to 4e249 (1 + i), and then goes down
    by 1e246 (1 + i) a step."""
    def step(w):
        if w.real >= 1e249:
            return w - complex(1e246, 1e246)
        if w.real >= 10.5:
            return complex(8e249, 8e249) if huge(w) else complex(4e249, 4e249)
        return w + 1.0

    return step


_ROTATED_STAGE = sm.FiniteBlaschkeProduct(cmath.exp(-3j), ((-cmath.exp(1j) / 3.0, 2),))


class TestOrbitLoop:
    """_orbit_rho_sequence walks the orbits a chunk at a time and settles
    each chunk in lanes; its values, frozen_at, last_w and errors must equal
    the per-step loop's, and each value must be
    geometry.halfplane_pseudo_hyperbolic of the orbit pair that hp.apply
    gives, bit for bit, up to the freeze."""

    MAPS = {
        "example62": presets.example62,
        "rotated": lambda: sm.FiniteBlaschkeProduct(
            cmath.exp(-3j * 1.234), ((-cmath.exp(1.234j) / 3.0, 2),)),
        "translation": presets.translation,
    }
    # example61 at 0.6 and 0.9 freezes on stagnation (n = 16 to 32 from
    # these starts), and translation, with its exact half-plane form, at
    # n = 16 to 25; the rest run to n_max
    LOOP_MAPS = {
        **MAPS,
        "example61-0.34": lambda: presets.example61(0.34),
        "example61-0.6": lambda: presets.example61(0.6),
        "example61-0.9": lambda: presets.example61(0.9),
        "composite": lambda: sm.CompositeMap((_ROTATED_STAGE, _ROTATED_STAGE)),
    }
    STARTS = {"origin": [0.0], "off-axis": [0.3 + 0.2j], "merging": [0.0, 0.5j]}
    # every chunk end up to the second full-size chunk, and one step either side
    N_MAX = [0, 1, 8, 9, 16, 17] + [e + d for e in chunk_ends(7) for d in (-2, -1, 0)]

    @pytest.mark.parametrize("name", sorted(MAPS))
    @pytest.mark.parametrize("mode", ["step", "merging"])
    def test_values_are_the_public_distance(self, name, mode):
        f = self.MAPS[name]()
        hp = sm.HalfPlaneConjugate(f, dyn.classify(f).dw_point)
        points = [0.0] if mode == "step" else [0.0, 0.5j]
        n_max = 3000
        vals, frozen_at, _ = dyn._orbit_rho_sequence(hp, points, n_max)
        stop = n_max if frozen_at is None else frozen_at
        u = hp.to_halfplane(points[0])
        v = hp.apply(u) if mode == "step" else hp.to_halfplane(points[1])
        for n in range(stop + 1):
            assert vals[n] == halfplane_pseudo_hyperbolic(u, v), n
            u, v = (v if mode == "step" else hp.apply(u)), hp.apply(v)
        assert np.all(vals[stop:] == vals[stop])

    @pytest.mark.parametrize("start", sorted(STARTS))
    @pytest.mark.parametrize("name", sorted(LOOP_MAPS))
    def test_matches_the_per_step_loop(self, name, start):
        f = self.LOOP_MAPS[name]()
        hp = sm.HalfPlaneConjugate(f, dyn.classify(f).dw_point)
        for n_max in self.N_MAX:
            assert (outcome(dyn._orbit_rho_sequence, hp, self.STARTS[start], n_max)
                    == outcome(per_step_rho_sequence, hp, self.STARTS[start], n_max)), n_max

    @pytest.mark.parametrize("start", ["origin", "merging"])
    @pytest.mark.parametrize("name", ["composite", "example62"])
    def test_long_orbits_match_the_per_step_loop(self, name, start):
        f = self.LOOP_MAPS[name]()
        hp = sm.HalfPlaneConjugate(f, dyn.classify(f).dw_point)
        assert (outcome(dyn._orbit_rho_sequence, hp, self.STARTS[start], 20000)
                == outcome(per_step_rho_sequence, hp, self.STARTS[start], 20000))

    @pytest.mark.parametrize("points", [[0.0], [0.0, 0.5j]])
    @pytest.mark.parametrize("n_max", [0, 63, 64, 5000])
    def test_one_apply_per_point(self, points, n_max):
        f = presets.example62()
        hp = sm.HalfPlaneConjugate(f, dyn.classify(f).dw_point)
        # the transport step of a twin of hp, counted in the opaque-step kernel
        apply = sm.HalfPlaneConjugate(f, dyn.classify(f).dw_point).apply
        calls = []
        counted = _StubConjugate(0.0, lambda w: calls.append(w) or apply(w))
        counted.to_halfplane = hp.to_halfplane
        # and hp's own kernel: the points it walks, apply's one point each
        steps, walk = [], hp.walk

        def counted_walk(orbit, count):
            start = len(orbit)
            error = walk(orbit, count)
            steps.extend(orbit[start:])
            return error

        hp.walk = counted_walk
        got = outcome(dyn._orbit_rho_sequence, hp, points, n_max)
        assert got[1] is None
        assert outcome(dyn._orbit_rho_sequence, counted, points, n_max) == got
        # the orbit points up to the pair after the last
        assert len(calls) == len(steps) == (n_max + 2 if len(points) == 1 else 2 * (n_max + 1))

    # in consecutive-step mode, unless named: |v| > 1e250 at n = 12
    # (u = 1e240); |u| > 1e250 at n = 9 in merging, where v stays put;
    # rho = 0 < 1e-300 at n = 9; a finite v whose abs overflows raises
    # OverflowError at n = 11, but not at n = 9 with |u| > 1e250 (the
    # freeze test never reads abs(v)), nor in merging at n = 16 with
    # u = 1.5e308 (1 + i) after 8 steps of rho = 1 (nor abs(u)); a point
    # with Re w = 0 and |w| > 1e250 leaves the half-plane (v at n = 9, u at
    # n = 10 in merging) before it can freeze; a point with a NaN part from
    # the fourth step on is not in the half-plane either (n = 3, and n = 4
    # in merging); a point with parts of at most 0.8e250 and |w| > 1e250
    # freezes while the other point has |w| < 1e250: v at n = 10, and in
    # merging u at n = 11 (huge-modulus) or v at n = 11 (huge-modulus-v,
    # whose consecutive steps run to n_max); so does rho < 1e-300 from an
    # orbit that does not stay merged (n = 11); and a point with Re w < 0
    # leaves the half-plane though its rho is unremarkable while the other
    # orbit stays in: v at n = 3, and in merging u at n = 4 (overshoot) or
    # v at n = 3 (overshoot-v, whose consecutive steps run to n_max); and
    # three fail _settle's screen in their first chunk but end nothing in
    # either mode: parts above _SCREEN_PART with |w| <= 1e250 at every step
    # (big-part), rho < 1e-300 at n = 2 (tiny-rho-early), and rho steady
    # from n = 1 (steady-early: w -> 2 w up to Re w = 8)
    STUBS = {
        "huge-v": lambda: _StubConjugate(1.0, lambda w: 1e20 * w),
        "huge-u": lambda: _StubConjugate(1.0, lambda w: 1e30 * w if w.imag == 0 else w),
        "tiny-rho": lambda: _StubConjugate(1.0, lambda w: w),
        "overflow": lambda: _StubConjugate(
            1.0, lambda w: w + 1.0 if w.real < 12.0 else complex(1.5e308, 1.5e308)),
        "overflow-past-huge-u": lambda: _StubConjugate(
            1.0, lambda w: w + 1.0 if w.real < 9.0
            else complex(1e300, 0.0) if w.real < 1e299 else complex(1.5e308, 1.5e308)),
        "overflow-past-stagnation": lambda: _StubConjugate(1.0, _past_stagnation),
        "huge-on-the-axis": lambda: _StubConjugate(
            1.0, lambda w: complex(0.0, 1e260) if w.imag == 0 and w.real >= 10.0 else w + 1.0),
        "nan": lambda: _StubConjugate(
            1.0, lambda w: w + 1.0 if w.real < 4.0 else complex(math.nan, 0.0)),
        "nan-imag": lambda: _StubConjugate(
            1.0, lambda w: w + 1.0 if w.real < 4.0 else complex(w.real + 1.0, math.nan)),
        "huge-modulus": lambda: _StubConjugate(1.0, _jump_to_huge(lambda w: not w.imag)),
        "huge-modulus-v": lambda: _StubConjugate(1.0, _jump_to_huge(lambda w: w.imag)),
        "tiny-rho-late": lambda: _StubConjugate(1.0, _brief_merge(12.0)),
        "overshoot": lambda: _StubConjugate(3.25, lambda w: w + 1.0 if w.imag else w - 1.0),
        "overshoot-v": lambda: _StubConjugate(3.25, lambda w: w - 1.5 if w.imag else w + 1.0),
        "big-part": lambda: _StubConjugate(6e249, lambda w: complex(w.real, 1.001 * w.imag + 1.0)),
        "tiny-rho-early": lambda: _StubConjugate(1.0, _brief_merge(3.0)),
        "steady-early": lambda: _StubConjugate(1.0, lambda w: 2.0 * w if w.real < 8.0 else w + 1.0),
    }

    @pytest.mark.parametrize("points", [[0.0], [0.0, 0.5j]])
    @pytest.mark.parametrize("stub", sorted(STUBS))
    def test_freeze_rules(self, stub, points):
        hp = self.STUBS[stub]()
        want = outcome(per_step_rho_sequence, hp, points, 1000)
        assert outcome(dyn._orbit_rho_sequence, hp, points, 1000) == want

    def test_stubs_stop_as_documented(self):
        def stop(stub, points):
            return outcome(per_step_rho_sequence, self.STUBS[stub](), points, 1000)[1]

        assert stop("huge-v", [0.0]) == 12
        assert stop("huge-u", [0.0, 0.5j]) == 9
        assert stop("tiny-rho", [0.0]) == 9
        assert stop("overflow", [0.0]) == "absolute value too large"
        assert stop("overflow-past-huge-u", [0.0]) == 9
        assert stop("overflow-past-stagnation", [0.0, 0.5j]) == 16
        assert stop("huge-modulus", [0.0]) == 10
        assert stop("huge-modulus", [0.0, 0.5j]) == stop("huge-modulus-v", [0.0, 0.5j]) == 11
        assert stop("huge-modulus-v", [0.0]) is None
        assert stop("tiny-rho-late", [0.0]) == stop("tiny-rho-late", [0.0, 0.5j]) == 11
        for points in ([0.0], [0.0, 0.5j]):
            assert stop("huge-on-the-axis", points) == "half-plane points need positive real part"
            assert stop("nan", points) == "half-plane points need positive real part"
            assert stop("nan-imag", points) == "half-plane points need positive real part"
            assert stop("overshoot", points) == "half-plane points need positive real part"
            for stub in ("big-part", "tiny-rho-early", "steady-early"):
                assert stop(stub, points) is None
            assert per_step_rho_sequence(self.STUBS["tiny-rho-early"](), points, 9)[0][2] < 1e-300
            vals = per_step_rho_sequence(self.STUBS["steady-early"](), points, 9)[0]
            assert vals[2] == vals[1]
        assert stop("overshoot-v", [0.0]) is None
        assert stop("overshoot-v", [0.0, 0.5j]) == "half-plane points need positive real part"
        assert self.STUBS["big-part"]().to_halfplane(0.0).real > dyn._SCREEN_PART

    @pytest.mark.parametrize("points", [[0.0], [0.0, 0.5j]])
    def test_a_nan_imaginary_part_leaves_the_half_plane(self, points):
        with pytest.raises(ValueError, match="^half-plane points need positive real part$"):
            dyn._orbit_rho_sequence(self.STUBS["nan-imag"](), points, 1000)

    @pytest.mark.parametrize("points", [[0.0], [0.0, 0.5j]])
    @pytest.mark.parametrize("chunk", [0, 1, 2, 3])
    def test_stagnation_runs_across_chunk_ends(self, chunk, points):
        # w + 1 up to Re w >= t, then 2 w for 9 steps and w + 1 again: rho
        # is constant for exactly the run of 8 stagnant values, which ends
        # in every place around the end of the first two chunks and both
        # ends of the first full-size one, with no stagnant value after it
        end = [*chunk_ends(2), *first_full_chunk()][chunk]
        n_max = first_full_chunk()[1] + 100
        for t in range(end - 14, end + 2):
            hp = _StubConjugate(
                1.0, lambda w, t=t: 2.0 * w if t <= w.real < t * 2.0 ** 9 else w + 1.0)
            want = outcome(per_step_rho_sequence, hp, points, n_max)
            assert end - 8 <= want[1] <= end + 9
            assert outcome(dyn._orbit_rho_sequence, hp, points, n_max) == want, t

    @pytest.mark.parametrize("points", [[0.0], [0.0, 0.5j]])
    @pytest.mark.parametrize("pair", [0, 1, 32, 63, 64, 128, 191, 192, 448] + [
        # the first full-size chunk's first, second, middle and last pairs,
        # and the next chunk's first
        start + d for start, end in [first_full_chunk()]
        for d in (0, 1, (end - start) // 2, end - start - 1, end - start)])
    def test_leaving_the_half_plane_at_a_chunk_position(self, pair, points):
        # Re w_n = pair + 1 - n (merging: pair - n) reaches 0 in the pair
        # `pair` and stays there
        hp = _StubConjugate(pair + 2.0 - len(points), lambda w: w - 1.0 if w.real > 0 else w)
        n_max = first_full_chunk()[1] + 100
        want = outcome(per_step_rho_sequence, hp, points, n_max)
        assert want == (ValueError, "half-plane points need positive real part")
        assert outcome(dyn._orbit_rho_sequence, hp, points, n_max) == want

    @pytest.mark.parametrize("points", [[0.0], [0.0, 0.5j]])
    @pytest.mark.parametrize("k", [0, 1, 8, 15, 16, 17, 18, 40, 63, 64, 65, 100])
    def test_apply_raising_around_the_freeze(self, k, points):
        # w_n = 2^n: rho stays 1/3 and freezes on stagnation at n = 16, so
        # an apply raising from 2^k surfaces only for k <= 16 (consecutive
        # steps, the pair (w_16, w_17)) or k <= 15 (merging, (a_16, b_16))
        def double(w):
            if w.real >= 2.0 ** k:
                raise RuntimeError(f"no step from {w!r}")
            return 2.0 * w

        hp = _StubConjugate(1.0, double)
        want = outcome(per_step_rho_sequence, hp, points, 1000)
        assert (want[0] is RuntimeError) == (k <= (16 if len(points) == 1 else 15))
        assert outcome(dyn._orbit_rho_sequence, hp, points, 1000) == want

    @pytest.mark.parametrize("points", [[0.0], [0.0, 0.5j]])
    def test_leaving_the_half_plane_raises(self, points):
        with pytest.raises(ValueError, match="^half-plane points need positive real part$"):
            dyn._orbit_rho_sequence(_leaving_conjugate(), points, 100)

    @pytest.mark.parametrize("n_max", [-1, -3])
    def test_negative_n_max(self, n_max):
        f = presets.example62()
        with pytest.raises(ValueError, match="n_max"):
            dyn.hyperbolic_step(f, 0.0, n_max)
        with pytest.raises(ValueError, match="n_max"):
            dyn.orbit_merging(f, 0.0, 0.5j, n_max)


def chunked_outcomes(f, n_max):
    """The bits, or the type and message of the error, of every entry that
    walks orbits in chunks, on the map f up to step n_max."""
    def attempt(call):
        try:
            return call()
        except Exception as exc:
            return type(exc), str(exc)

    def bits(x):
        return np.asarray(x, dtype=complex).view(np.int64).tolist()

    def step():
        rep = dyn.hyperbolic_step(f, 0.0, n_max)
        return bits(rep.sequence), rep.frozen_at, bits(rep.approach_angle)

    cached, fresh = abel.HalfPlaneMap(f), abel.HalfPlaneMap(f)
    return [
        attempt(step),
        attempt(lambda: bits(dyn.orbit_merging(f, 0.0, 0.5j, n_max))),
        # the cached orbit, walked to the chunk past 1e100 and then on
        attempt(lambda: cached.max_feasible_index(n_max)),
        attempt(lambda: bits(cached.orbit_point(n_max // 3))),
        attempt(lambda: bits(cached.orbit_point(n_max))),
        attempt(lambda: bits(fresh.orbit_point(n_max))),
        attempt(lambda: bits(fresh.iterate(1.0 + 0.5j, n_max))),
    ]


class TestChunkSchedule:
    """The chunk sizes of the orbit walks are a schedule, not a parameter:
    chunks of 64 pairs or points throughout, and chunks doubling to the
    ceiling, give the same bits and the same errors."""

    MAPS = {
        "example62": presets.example62,
        # freezes at n = 32, passes 1e100 at index 332 and 1e280 at 931
        "example61-0.6": lambda: presets.example61(0.6),
        "translation": presets.translation,
        "composite": lambda: sm.CompositeMap((_ROTATED_STAGE, _ROTATED_STAGE)),
    }

    @pytest.mark.parametrize("name", sorted(MAPS))
    def test_same_outcomes_for_every_ceiling(self, name, monkeypatch):
        got = {}
        for ceiling in (dyn._CHUNK_MIN, 4096):
            monkeypatch.setattr(dyn, "_CHUNK_MAX", ceiling)
            monkeypatch.setattr(abel, "_CHUNK_MAX", ceiling)
            got[ceiling] = chunked_outcomes(self.MAPS[name](), 9000)
        assert got[dyn._CHUNK_MIN] == got[4096]
        if name == "example61-0.6":
            assert got[4096][2] == 332
            assert got[4096][4][0] is ArithmeticError


class TestRotationInvariance:
    """A rotated copy e^{it} f(e^{-it} z) of example62 is the same dynamics,
    so its step and merging values must agree with the unrotated ones up to
    rounding; the angles are ones where walking orbits partly in the disk
    broke these bounds."""

    @pytest.fixture(scope="class")
    def unrotated(self):
        f = presets.example62()
        return (dyn.hyperbolic_step(f, 0.0, 10000).limit_estimate,
                dyn.orbit_merging(f, 0.0, 0.5j, 10000)[-1])

    @pytest.mark.parametrize("t", [1.5, 2.5, 3.0])
    def test_step_and_merging_survive_rotation(self, unrotated, t):
        step0, merge0 = unrotated
        f = sm.FiniteBlaschkeProduct(cmath.exp(-3j * t), ((-cmath.exp(1j * t) / 3.0, 2),))
        step = dyn.hyperbolic_step(f, 0.0, 10000).limit_estimate
        merge = dyn.orbit_merging(f, 0.0, cmath.exp(1j * t) * 0.5j, 10000)[-1]
        assert abs(step - step0) <= 1e-10 * step0
        assert abs(merge - merge0) <= 1e-8 * merge0


def scalar_containment(f, M, samples, seed):
    """(worst point, max quotient, generator state) of
    julia_containment_check's sampling, one rng.random() call per value."""
    cls = dyn.classify(f)
    disk = Horodisk(cls.dw_point, M)
    rng = np.random.default_rng(seed)
    max_q, worst, n_done = -math.inf, 0j, 0
    while n_done < samples:
        u = rng.random()
        v = rng.random()
        z = disk.center + disk.radius * math.sqrt(u) * cmath.exp(2j * math.pi * v)
        if abs(z) >= 1.0 - 1e-12 or not disk.contains(z):
            continue
        q = disk.quotient(sm.evaluate(f, z))
        if q > max_q:
            max_q, worst = q, z
        n_done += 1
    return worst, max_q, rng.bit_generator.state


class TestJuliaContainment:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_block_draws_are_the_scalar_draws(self, seed, monkeypatch):
        # criterion 11's check; the generator ends where the scalar loop's does
        states = []
        real = np.random.default_rng

        def recorded(s):
            states.append(rng := real(s))
            return rng

        monkeypatch.setattr(np.random, "default_rng", recorded)
        rep = dyn.julia_containment_check(presets.example61(0.5), 1.0, samples=1000, seed=seed)
        monkeypatch.undo()
        worst, max_q, state = scalar_containment(presets.example61(0.5), 1.0, 1000, seed)
        assert (rep.worst_point, rep.max_quotient) == (worst, max_q)
        assert float(rep.max_quotient).hex() == float(max_q).hex()
        assert states[0].bit_generator.state == state

    def test_example_containment(self):
        rep = dyn.julia_containment_check(presets.example61(0.5), 1.0,
                                          samples=500, seed=11)
        assert rep.passed
        assert rep.bound == pytest.approx(2 / 3, abs=1e-6)

    def test_identity_preserves_quotient(self):
        rep = dyn.julia_containment_check(sm.identity_map(), 1.0,
                                          samples=300, seed=2)
        assert rep.passed
        assert rep.max_ratio <= 1.0

    def test_parabolic_containment(self):
        rep = dyn.julia_containment_check(presets.example62(), 1.0,
                                          samples=400, seed=5)
        assert rep.passed

    def test_interior_map_rejected(self):
        with pytest.raises(ValueError):
            dyn.julia_containment_check(presets.power_map(2), 1.0)

    def test_bad_level_rejected(self):
        with pytest.raises(ValueError):
            dyn.julia_containment_check(presets.example62(), 0.0)

    def test_infinite_level_is_refused_by_name(self):
        with pytest.raises(ValueError, match="^horodisk level must be positive and finite, got inf$"):
            dyn.julia_containment_check(presets.example61(0.5), math.inf)

    def test_too_small_a_level_is_refused(self, monkeypatch):
        # below M = 5e-13 no horodisk point is 1e-12 inside the circle, so
        # rejection sampling would never end: the generator gives up first
        real = np.random.default_rng

        class Bounded:
            def __init__(self, seed):
                self.rng, self.draws = real(seed), 0

            def random(self, size=None):
                self.draws += 1 if size is None else int(np.prod(size))
                if self.draws > 10**5:
                    raise RuntimeError("no sample accepted in 10^5 draws")
                return self.rng.random(size)

        monkeypatch.setattr(np.random, "default_rng", Bounded)
        with pytest.raises(ValueError, match="too small to sample"):
            dyn.julia_containment_check(presets.example61(0.5), 1e-13, samples=10)

    @pytest.mark.parametrize("samples", [0, -5])
    def test_no_samples_rejected(self, samples):
        # an empty sample set would pass vacuously with -inf quotients
        with pytest.raises(ValueError, match="at least one sample"):
            dyn.julia_containment_check(presets.example62(), 1.0, samples=samples)


class TestPreimageHorodiskEscalation:
    def test_fibers_escape_successive_horodisks(self):
        f = presets.example61(0.5)
        a = 2 / 3
        level = [0.0 + 0.0j]
        for k in range(1, 4):
            nxt = []
            for p in level:
                nxt.extend(z for z, _ in sm.preimages(f, p))
            for z in nxt:
                assert julia_quotient(z, 1.0) > a ** (-k) * (1 - 1e-9)
            level = nxt
