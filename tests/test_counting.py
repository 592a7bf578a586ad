import math

import numpy as np
import pytest

from diskdyn import counting as ct
from diskdyn import presets
from diskdyn import selfmap as sm


class TestNevanlinna:
    def test_identity_closed_form(self):
        for w in (0.0, 0.3, -0.4 + 0.2j, 0.7j):
            sample = ct.nevanlinna(sm.identity_map(), w)
            assert sample.value == pytest.approx(1 - abs(w), abs=1e-14)
            assert sample.preimage_count == 1

    def test_square_map_closed_form(self):
        z2 = presets.power_map(2)
        for w in (0.1, 0.37, 0.5 + 0.3j, -0.62):
            expected = 2 * (1 - math.sqrt(abs(w)))
            assert ct.nevanlinna(z2, w).value == pytest.approx(expected, abs=1e-12)

    def test_example_value_at_quarter(self):
        sample = ct.nevanlinna(presets.example61(0.5), 0.25)
        assert sample.value == pytest.approx(1.2, abs=1e-12)
        assert sample.preimage_count == 2

    def test_critical_value_counts_multiplicity(self):
        for alpha in (0.4, 0.5, 0.6):
            sample = ct.nevanlinna(presets.example61(alpha), 0.0)
            assert sample.value == pytest.approx(2 * (1 - alpha), abs=1e-14)

    def test_positive_everywhere_for_proper_maps(self):
        rng = np.random.default_rng(17)
        f = presets.example61(0.5)
        for _ in range(50):
            w = 0.9 * math.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
            sample = ct.nevanlinna(f, complex(w))
            assert sample.value > 0
            assert sample.preimage_count == f.degree


class TestLMFunctional:
    def test_identity_reduces_to_one_minus_abs(self):
        ident = sm.identity_map()
        for w in (0.2, 0.5, 0.9):
            assert ct.lm_functional(ident, ident, w) == pytest.approx(1 - w, abs=1e-13)

    def test_square_map_cancellation(self):
        z2 = presets.power_map(2)
        ident = sm.identity_map()
        for r in (0.25, 0.49, 0.81):
            expected = 2 * (1 - math.sqrt(r))
            assert ct.lm_functional(z2, ident, r) == pytest.approx(expected, abs=1e-12)

    def test_radial_trend_for_example(self):
        f = presets.example61(0.5)
        ident = sm.identity_map()
        vals = [ct.lm_functional(f, ident, r) for r in (0.9, 0.99, 0.999)]
        assert vals[0] > vals[1] > vals[2]


class TestComparabilityScan:
    def test_identity_band(self):
        radii = np.linspace(0.1, 0.99, 30)
        scan = ct.inner_comparability_scan(sm.identity_map(), radii)
        # ratio is 1/(1 + r), strictly inside (1/2, 1)
        assert scan.ratio_min > 0.5
        assert scan.ratio_max < 1.0

    def test_square_map_band(self):
        radii = np.linspace(0.5, 0.999, 40)
        scan = ct.inner_comparability_scan(presets.power_map(2), radii)
        assert 0.4 < scan.ratio_min <= scan.ratio_max < 1.1

    def test_example_band_near_boundary(self):
        # band frozen from a 60-point scan of the same radii range
        radii = ct.dyadic_radii(4, 9, 16)
        scan = ct.inner_comparability_scan(presets.example61(0.5), radii)
        assert 0.8 <= scan.ratio_min <= scan.ratio_max <= 0.9

    def test_validates_radii(self):
        with pytest.raises(ValueError):
            ct.inner_comparability_scan(sm.identity_map(), [0.5, 1.0])
        with pytest.raises(ValueError):
            ct.inner_comparability_scan(sm.identity_map(), [])

    def test_dyadic_radii(self):
        radii = ct.dyadic_radii(1, 3, 3)
        assert radii == [0.5, 0.75, 0.875]


def test_scan_rows_shape():
    rows = ct.scan_rows(presets.power_map(2), sm.identity_map(), [0.5, 0.9])
    assert len(rows) == 2
    r, n, ratio, lm = rows[0]
    assert r == 0.5
    assert n == pytest.approx(2 * (1 - math.sqrt(0.5)), abs=1e-12)
    assert ratio == pytest.approx(n / 0.75, abs=1e-12)
