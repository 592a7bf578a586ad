import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diskdyn import geometry as g

disk_points = st.complex_numbers(max_magnitude=0.95, allow_nan=False, allow_infinity=False)


def test_pseudo_hyperbolic_coincident():
    assert g.pseudo_hyperbolic(0.3 + 0.2j, 0.3 + 0.2j) == 0.0


def test_pseudo_hyperbolic_from_origin_is_modulus():
    for a in (0.5, -0.25j, 0.3 + 0.4j):
        assert g.pseudo_hyperbolic(0, a) == pytest.approx(abs(a), abs=1e-15)


def test_pseudo_hyperbolic_matches_parabolic_closed_form_at_origin():
    # the closed form (1-z)^2/(9z^2+14z+9) evaluated at z = 0 is 1/9,
    # the distance from 0 to the first orbit point of the alpha=1/3 map
    assert g.pseudo_hyperbolic(0, 1 / 9) == pytest.approx(1 / 9, abs=1e-16)


def test_hyperbolic_distance_values():
    assert g.hyperbolic_distance(0.4j, 0.4j) == 0.0
    # rho = 1/3 gives log 2
    assert g.hyperbolic_distance(0, 1 / 3) == pytest.approx(math.log(2), abs=1e-14)
    assert g.hyperbolic_distance(0, 0.8) == pytest.approx(math.log(9), abs=1e-13)


def test_mobius_factor_basics():
    a = 0.3 - 0.5j
    assert g.mobius_factor(a, a) == 0
    z = 0.2 + 0.7j
    assert g.mobius_factor(0, z) == z
    assert g.mobius_factor(0.5, 0) == pytest.approx(0.5, abs=1e-16)


def test_zero_has_no_direction():
    with pytest.raises(ValueError, match="no direction"):
        g.unit_direction(0j)


def test_julia_quotient_values():
    assert g.julia_quotient(0, 1) == pytest.approx(1.0, abs=1e-15)
    for t in (0.1, 0.5, -0.3):
        assert g.julia_quotient(t, 1) == pytest.approx((1 - t) / (1 + t), abs=1e-13)
    assert g.julia_quotient(-0.8, 1) == pytest.approx(9.0, abs=1e-12)


def test_horodisk_geometry():
    h = g.Horodisk(1.0, 1.0)
    assert h.center == pytest.approx(0.5)
    assert h.radius == pytest.approx(0.5)
    assert abs(h.center) + h.radius == pytest.approx(1.0, abs=1e-15)
    h2 = g.Horodisk(cmath.exp(0.7j), 3.0)
    assert abs(h2.center) + h2.radius == pytest.approx(1.0, abs=1e-12)
    assert h2.contains(0.0)  # quotient at 0 is 1 < 3


def test_horodisk_validation():
    with pytest.raises(ValueError):
        g.Horodisk(0.5, 1.0)
    with pytest.raises(ValueError):
        g.Horodisk(1.0, 0.0)
    with pytest.raises(ValueError):
        g.Horodisk(1.0, -2.0)


@pytest.mark.parametrize("level", [math.inf, math.nan])
def test_horodisk_level_must_be_finite(level):
    # an infinite level gives radius inf / inf = nan: a sample would be NaN,
    # and its error would name that point, not the level
    message = rf"^horodisk level must be positive and finite, got {level!r}$"
    with pytest.raises(ValueError, match=message):
        g.Horodisk(1.0, level)


def test_horodisk_membership_agrees_with_euclidean():
    rng = np.random.default_rng(42)
    h = g.Horodisk(cmath.exp(0.3j), 0.8)
    checked = 0
    for _ in range(10000):
        z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if abs(z) >= 1 - 1e-12:
            continue
        euclid = abs(z - h.center) - h.radius
        if abs(euclid) <= 1e-12:
            continue  # boundary band where rounding may flip either test
        assert h.contains(z) == (euclid < 0)
        checked += 1
    # the square sample keeps about pi/4 of the draws inside the disk
    assert checked > 7000


def test_cayley_values_and_round_trip():
    assert g.cayley_to_rhp(0) == 1
    assert g.cayley_to_rhp(1 / 9) == pytest.approx(1.25, abs=1e-15)
    z = 0.3 + 0.2j
    assert g.cayley_from_rhp(g.cayley_to_rhp(z)) == pytest.approx(z, abs=1e-14)
    w = 2.5 - 1.7j
    assert g.cayley_to_rhp(g.cayley_from_rhp(w)) == pytest.approx(w, abs=1e-13)


def test_cayley_rejects_bad_inputs():
    with pytest.raises(ValueError):
        g.cayley_from_rhp(-1.0 + 2j)
    with pytest.raises(ValueError):
        g.cayley_from_rhp(0.0)
    with pytest.raises(ValueError):
        g.cayley_to_rhp(1.0)


def test_half_plane_helpers_reject_nan():
    nan = complex(math.nan, 0.0)
    with pytest.raises(ValueError, match=r"cayley_to_rhp requires \|z\| < 1, got \(nan\+0j\)"):
        g.cayley_to_rhp(nan)
    with pytest.raises(ValueError, match=r"cayley_from_rhp requires Re w > 0, got \(nan\+0j\)"):
        g.cayley_from_rhp(nan)
    for z, w in ((nan, 1.0), (1.0, nan)):
        with pytest.raises(ValueError, match="half-plane points need positive real part"):
            g.halfplane_pseudo_hyperbolic(z, w)


def test_half_plane_helpers_reject_a_nan_imaginary_part():
    nan = complex(1.0, math.nan)
    with pytest.raises(ValueError, match=r"cayley_from_rhp requires Re w > 0, got \(1\+nanj\)"):
        g.cayley_from_rhp(nan)
    for z, w in ((nan, 1.0), (1.0, nan)):
        with pytest.raises(ValueError, match="^half-plane points need positive real part$"):
            g.halfplane_pseudo_hyperbolic(z, w)


def test_disk_point_margin():
    with pytest.raises(ValueError):
        g.ensure_disk_point(1.0 - 1e-16)
    with pytest.raises(ValueError):
        g.ensure_disk_point(1.0)
    assert g.ensure_disk_point(1.0 - 1e-14) == 1.0 - 1e-14


@pytest.mark.parametrize("z", [complex(math.nan, 0.0), complex(0.3, math.nan),
                               complex(math.inf, 0.0), complex(math.nan, math.inf)])
def test_disk_point_refuses_nan_and_inf(z):
    with pytest.raises(ValueError, match="is not strictly inside the unit disk"):
        g.ensure_disk_point(z)


@pytest.mark.parametrize("w", [complex(math.nan, 0.0), complex(1.0, math.nan), math.nan])
def test_unimodular_refuses_nan(w):
    with pytest.raises(ValueError, match="is not unimodular"):
        g.ensure_unimodular(w)


@given(disk_points, disk_points)
@settings(max_examples=200)
def test_symmetry(z, w):
    assert abs(g.pseudo_hyperbolic(z, w) - g.pseudo_hyperbolic(w, z)) <= 1e-15


@given(disk_points, disk_points, disk_points)
@settings(max_examples=200)
def test_mobius_invariance(a, z, w):
    lhs = g.pseudo_hyperbolic(g.mobius_factor(a, z), g.mobius_factor(a, w))
    assert lhs == pytest.approx(g.pseudo_hyperbolic(z, w), abs=1e-12)


@given(disk_points, disk_points)
@settings(max_examples=200)
def test_cayley_isometry(z, w):
    lhs = g.halfplane_pseudo_hyperbolic(g.cayley_to_rhp(z), g.cayley_to_rhp(w))
    assert lhs == pytest.approx(g.pseudo_hyperbolic(z, w), abs=1e-12)


def test_halfplane_distance_validates_domain():
    with pytest.raises(ValueError):
        g.halfplane_pseudo_hyperbolic(-1.0, 2.0)



def test_same_point_threshold_and_no_validation():
    z = 0.3 - 0.4j
    assert g.same_point(z, z)
    assert g.same_point(z, z + 5e-9)
    assert not g.same_point(z, z + 1e-7)
    # unpolished roots may sit just outside the disk
    outside = 1.0 + 1e-12
    assert g.same_point(outside, outside)
    assert not g.same_point(outside, 0.5)
    # zero denominator: conj(w) z = 1
    assert not g.same_point(2.0, 0.5)


@pytest.mark.parametrize("w, inside", [
    (1.0, True), (complex(1e-300, -5.0), True),
    (0.0, False), (complex(-1.0, 1.0), False),
    (complex(math.nan, 1.0), False), (complex(1.0, math.nan), False),
])
def test_in_halfplane(w, inside):
    assert g.in_halfplane(complex(w)) is inside
