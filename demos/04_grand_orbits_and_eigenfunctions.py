#!/usr/bin/env python3
"""From grand orbits to eigenfunctions: enumerate the backward tree of a
base point, build the product over its nodes, and watch the eigenvalue
estimate settle on -1 for the worked degree-2 map."""

import numpy as np

from diskdyn import (
    blaschke_sum,
    conjugation_closure_check,
    critical_orbit_intersection,
    eigen_residual,
    estimate_tau,
    grand_orbit,
    prefix_samples,
    ring_samples,
    square_trick_check,
)
from diskdyn.presets import example61

phi = example61(0.5)

# ---------------------------------------------------------------------------
# the grand orbit of 0
# ---------------------------------------------------------------------------
# forward orbit z_m plus every backward fiber, deduplicated, each node
# weighted by the local degree of the iterate that maps it onto the orbit.

# enumerate once, to depth 8; a shallower truncation is a prefix of it
deepest = grand_orbit(phi, 0.0, forward_n=12, backward_depth=8)
tr = deepest.prefix(6)
print("nodes:", len(tr.nodes), " truncated:", tr.truncated)
print("first few:", [f"{n.point:.4f} (x{n.multiplicity})" for n in tr.nodes[:6]])

# the critical point -1/2 is in the orbit and carries weight two; that is
# the bookkeeping that keeps the product well-defined
hits = critical_orbit_intersection(phi, tr)
print("critical hits:", [f"{n.point:.3f}" for n, _ in hits])
print("closed under conjugation:", conjugation_closure_check(tr))

# the node weights satisfy the summability that a convergent product needs:
# the per-generation increments of sum (1 - |node|) shrink steadily
print("partial sums:", np.round(tr.blaschke_partial_sums, 4))
print("total:", round(blaschke_sum(tr), 4))

# ---------------------------------------------------------------------------
# the product over the nodes
# ---------------------------------------------------------------------------
# B = prod m_node: vanishes exactly on the truncation, is real on the real
# axis (the node set is conjugation symmetric), and nearly flips sign under
# composition with phi.

# The products over shallower truncations are prefixes of the deepest one:
# prefix_samples takes each sample's factors once and reads every depth's
# values, and which samples lie clear of its zeros, off that one table.
samples = ring_samples(0.4, 16)
depths = (2, 4, 6, 8)
print("\ndepth  nodes   tau estimate         residual(tau=-1)")
for depth, (b, values, kept) in zip(depths, prefix_samples(deepest, depths, phi, samples)):
    est = estimate_tau(b, phi, samples, values, kept)
    res = eigen_residual(b, phi, -1.0, samples, values)
    print(f"{depth:3d} {len(b.zeros):7d}   {est.tau:.6f}   {res:.3e}")

# the square of the candidate is then nearly invariant: B^2(phi(z)) = B^2(z);
# deep is the loop's last product, over all of deepest's nodes
deep = b
print("\nsquare-trick residual:", f"{square_trick_check(deep, phi, samples, values):.2e}")
print("B(0) =", deep(0.0), "  B(0.7) =", f"{deep(0.7):.6f}")
