#!/usr/bin/env python3
"""The trichotomy of self-maps and the hyperbolic step: which maps admit
nontrivial eigenfunctions is decided entirely by these two diagnostics."""

import numpy as np

from diskdyn import classify, hyperbolic_step, julia_containment_check, orbit_merging
from diskdyn.presets import example61, example62, power_map, translation

# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------
# elliptic-interior: attracting fixed point inside the disk
# hyperbolic:        boundary point with derivative a < 1
# parabolic:         boundary point with derivative a = 1
# the shift omega f''(omega) decides the step of a parabolic map: zero
# exactly when it is 0

for name, f in [
    ("squared factor, alpha=0.6", example61(0.6)),
    ("squared factor, alpha=1/3", example62()),
    ("vertical translation     ", translation()),
    ("z^2                      ", power_map(2)),
]:
    cls = classify(f)
    extra = (f"a={cls.angular_derivative:.6f} shift={cls.shift:.3f} step={cls.step}"
             if cls.angular_derivative is not None
             else f"f'(p)={cls.interior_derivative:.3f}")
    print(f"{name}: {cls.kind:18s} at {cls.dw_point:.6f}  {extra}")

# ---------------------------------------------------------------------------
# hyperbolic step: the verdict and the sequence rho(orbit_n, orbit_{n+1})
# ---------------------------------------------------------------------------
# positive step <=> consecutive orbit points stay separated forever; this is
# exactly the condition under which eigenfunctions exist.  The verdict comes
# from the classification; the sequence is the numeric evidence for it.

print()
for name, f in [
    ("alpha=0.6  ", example61(0.6)),
    ("alpha=1/3  ", example62()),
    ("translation", translation()),
]:
    rep = hyperbolic_step(f, 0.0, n_max=10000)
    s = rep.sequence
    print(f"{name}: verdict {rep.verdict:12s} s_0={s[0]:.6f} s_100={s[100]:.6f} "
          f"s_end={rep.limit_estimate:.2e}")

# the hyperbolic limit is (1 - a)/(1 + a); the translation is exactly
# constant; the parabolic zero-step sequence decays like 1/(4n)

# ---------------------------------------------------------------------------
# orbit merging: the zero-step signature
# ---------------------------------------------------------------------------
# for zero-step maps any two orbits become indistinguishable, which is why
# no bounded eigenfunction can separate them.

seq = orbit_merging(example62(), 0.0, 0.5j, n_max=5000)
for n in (0, 10, 100, 1000, 5000):
    print(f"rho(orbit(0)_{n}, orbit(i/2)_{n}) = {seq[n]:.6f}")

# ---------------------------------------------------------------------------
# horodisk containment
# ---------------------------------------------------------------------------
# images of the horodisk H(omega, M) land inside H(omega, a M): sampled
# verification with the observed worst quotient.

rep = julia_containment_check(example61(0.5), 1.0, samples=1000, seed=0)
print(f"\ncontainment: max quotient {rep.max_quotient:.6f} <= bound {rep.bound:.6f} "
      f"-> {'ok' if rep.passed else 'violated'}")
