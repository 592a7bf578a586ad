#!/usr/bin/env python3
"""Building finite Blaschke products, composing and iterating them, and
solving for fibers, critical points, and boundary derivatives."""

import numpy as np

from diskdyn import (
    FiniteBlaschkeProduct,
    angular_derivative,
    compose,
    critical_points,
    derivative,
    evaluate,
    iterate,
    preimages,
)
from diskdyn.presets import example61, example62, power_map

# ---------------------------------------------------------------------------
# the worked family: phi(z) = ((z + alpha)/(1 + alpha z))^2
# ---------------------------------------------------------------------------
# a degree-2 product with both zeros at -alpha; gamma = 1 reproduces the
# rational form exactly, so phi(0) = alpha^2.

phi = example61(0.5)
print("phi(0)      =", evaluate(phi, 0))
print("phi'(0)     =", derivative(phi, 0), " (formula: 2 a (1 - a^2) = 0.75)")
print("degree      =", phi.degree)

# iteration drives every interior point toward the boundary fixed point 1
orbit = [iterate(phi, n, 0.0).real for n in range(8)]
print("orbit from 0:", np.round(orbit, 6))

# ---------------------------------------------------------------------------
# fibers: every value is taken exactly degree-many times
# ---------------------------------------------------------------------------
print("\nfiber over 0.25:", preimages(phi, 0.25))     # {0, -0.8}
print("fiber over 0:   ", preimages(phi, 0.0))        # the double zero
print("critical points:", critical_points(phi))       # degree - 1 of them

# composition multiplies degrees; fibers of a composite are solved stage
# by stage so the polynomial degree never exceeds a stage degree
phi2 = compose(phi, phi)
print("\ncomposite degree:", phi2.degree)
print("composite fiber size:", sum(m for _, m in preimages(phi2, 0.3 + 0.1j)))

# ---------------------------------------------------------------------------
# boundary derivatives from the Poisson sum
# ---------------------------------------------------------------------------
# at a boundary point omega the angular derivative |phi'(omega)| is
# sum m (1 - |a|^2) / |omega - a|^2 over the zeros a, summed exactly in
# rationals and rounded once; at a boundary fixed point it is the
# contraction rate of the horodisk flow there.

for alpha, label in ((0.6, "hyperbolic"), (1 / 3, "parabolic")):
    f = example61(alpha) if alpha != 1 / 3 else example62()
    print(f"alpha={alpha:.3f}: boundary derivative {angular_derivative(f, 1.0):.17g}"
          f"  (phi(1) = {evaluate(f, 1.0)}, {label})")

# general maps through the wire-friendly constructor
f = FiniteBlaschkeProduct(1j, ((0.5, 1), (-0.3j, 2)))
print("\ncustom map degree:", f.degree)
print("boundary modulus: ", abs(evaluate(f, np.exp(1.1j))))
print("power map fiber:  ", preimages(power_map(2), 0.25))
