#!/usr/bin/env python3
"""From grand orbits to eigenfunctions: enumerate the backward tree of a
base point, build the product over its nodes, and watch the eigenvalue
estimate settle on -1 for the worked degree-2 map."""

import numpy as np

from diskdyn import (
    blaschke_sum,
    build_truncated_eigenfunction,
    conjugation_closure_check,
    critical_orbit_intersection,
    eigen_residual,
    estimate_tau,
    grand_orbit,
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

samples = ring_samples(0.4, 16)
print("\ndepth  nodes   tau estimate         residual(tau=-1)")
for depth in (2, 4, 6, 8):
    t = deepest.prefix(depth)
    b = build_truncated_eigenfunction(t)
    est = estimate_tau(b, phi, samples)
    res = eigen_residual(b, phi, -1.0, samples)
    print(f"{depth:3d} {len(t.nodes):7d}   {est.tau:.6f}   {res:.3e}")

# the square of the candidate is then nearly invariant: B^2(phi(z)) = B^2(z)
deep = build_truncated_eigenfunction(deepest)
print("\nsquare-trick residual:", f"{square_trick_check(deep, phi, samples):.2e}")
print("B(0) =", deep(0.0), "  B(0.7) =", f"{deep(0.7):.6f}")
