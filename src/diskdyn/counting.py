"""Preimage-weighted counting function and the compactness functional.

N_f(w) sums 1 - |a| over the fiber f(a) = w with multiplicity; for a finite
Blaschke product every disk point has a full fiber, so N is positive on the
whole disk.  The compactness functional multiplies N by
(1 - |Theta(w)|^2)/(1 - |w|^2) for a reference product Theta; its radial
decay (or lack of it) is what the scans report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import ensure_disk_point
from .selfmap import evaluate, preimages


@dataclass(frozen=True)
class CountingSample:
    point: complex
    value: float
    preimage_count: int


def nevanlinna(f, w: complex) -> CountingSample:
    """Multiplicity-weighted sum of 1 - |a| over the fiber above w."""
    w = ensure_disk_point(w)
    fiber = preimages(f, w)
    value = sum(m * (1.0 - abs(a)) for a, m in fiber)
    count = sum(m for _, m in fiber)
    return CountingSample(point=w, value=value, preimage_count=count)


def lm_functional(f, theta_map, w: complex) -> float:
    """N_f(w) (1 - |Theta(w)|^2)/(1 - |w|^2) at a single point."""
    w = ensure_disk_point(w)
    n = nevanlinna(f, w).value
    tv = abs(evaluate(theta_map, w))
    return n * (1.0 - tv * tv) / (1.0 - abs(w) ** 2)


@dataclass(frozen=True)
class ComparabilityScan:
    radii: tuple[float, ...]
    values: tuple[float, ...]
    ratios: tuple[float, ...]
    ratio_min: float
    ratio_max: float


def inner_comparability_scan(f, radii) -> ComparabilityScan:
    """Range of N_f(r)/(1 - r^2) along real radii in (0, 1).

    For inner maps the ratio stays within positive finite bounds as r -> 1;
    the scan reports the observed band.
    """
    radii = tuple(float(r) for r in radii)
    if not radii or not all(0.0 < r < 1.0 for r in radii):
        raise ValueError("radii must lie strictly inside (0, 1)")
    values = []
    ratios = []
    for r in radii:
        n = nevanlinna(f, r).value
        values.append(n)
        ratios.append(n / (1.0 - r * r))
    return ComparabilityScan(
        radii=radii,
        values=tuple(values),
        ratios=tuple(ratios),
        ratio_min=min(ratios),
        ratio_max=max(ratios),
    )


def dyadic_radii(k_min: float, k_max: float, count: int) -> list[float]:
    """count radii 1 - 2^-k, k evenly spaced over [k_min, k_max]."""
    ks = np.linspace(k_min, k_max, count)
    return [1.0 - 2.0 ** (-float(k)) for k in ks]


def scan_rows(f, theta_map, radii) -> list[tuple]:
    """Rows (r, N, ratio, lm_value) for CSV export."""
    rows = []
    for r in radii:
        n = nevanlinna(f, r).value
        rows.append((r, n, n / (1.0 - r * r), lm_functional(f, theta_map, r)))
    return rows
