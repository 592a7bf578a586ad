#!/usr/bin/env python3
"""The preimage counting function N_f and the compactness functional: why
composition with an inner map never compresses the disk near its boundary."""

import numpy as np

from diskdyn import inner_comparability_scan, lm_functional, nevanlinna
from diskdyn.counting import dyadic_radii, scan_rows
from diskdyn.presets import example61, power_map
from diskdyn.selfmap import identity_map

# ---------------------------------------------------------------------------
# point values
# ---------------------------------------------------------------------------
# N_f(w) = sum of (1 - |a|) over the fiber f(a) = w, with multiplicity.

phi = example61(0.5)
print("N(1/4) for the worked map:", nevanlinna(phi, 0.25).value)   # 1 + 0.2
print("N(0), critical value:     ", nevanlinna(phi, 0.0).value)    # 2 (1 - 1/2)
print("N(0.3) for the identity:  ", nevanlinna(identity_map(), 0.3).value)
print("N(0.25) for z^2:          ", nevanlinna(power_map(2), 0.25).value)

# ---------------------------------------------------------------------------
# boundary comparability
# ---------------------------------------------------------------------------
# for inner maps N_f(r) is comparable to 1 - r^2 as r -> 1: the ratio stays
# inside a positive band, which is exactly what blocks compactness of the
# induced composition action.

radii = dyadic_radii(4, 10, 13)
for name, f in [("identity", identity_map()), ("z^2", power_map(2)),
                ("alpha=1/2 map", phi)]:
    scan = inner_comparability_scan(f, radii)
    print(f"{name:14s} N(r)/(1 - r^2) in [{scan.ratio_min:.4f}, {scan.ratio_max:.4f}]")

# ---------------------------------------------------------------------------
# the compactness functional
# ---------------------------------------------------------------------------
# N_f(w) (1 - |Theta(w)|^2)/(1 - |w|^2) for a reference product Theta; its
# failure to vanish radially is the sampled signature of non-compactness.

ident = identity_map()
print("\n  r      N(r)        ratio       functional")
for r, n, ratio, lm in scan_rows(phi, ident, dyadic_radii(2, 9, 8)):
    print(f"{r:.5f}  {n:.6f}  {ratio:.6f}  {lm:.6f}")

# with Theta = identity the functional equals N itself scaled by 1, dropping
# like 1 - r; a reference product with unimodular boundary values would keep
# it bounded away from zero instead
print("\nfunctional at 0.9 / 0.99 / 0.999:",
      [round(lm_functional(phi, ident, r), 6) for r in (0.9, 0.99, 0.999)])
