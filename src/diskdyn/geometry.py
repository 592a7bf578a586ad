"""Geometric primitives of the unit disk and the right half-plane.

Everything here is a pure function of plain complex numbers.  Points of the
open disk are validated with :func:`ensure_disk_point`; a margin of 1e-15
keeps 1 - |z|^2 away from catastrophic cancellation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# points this close to the unit circle are rejected as interior points
DISK_MARGIN = 1e-15

# tolerance on |w| = 1 for boundary contact points
UNIMODULAR_TOL = 1e-12

# pseudo-hyperbolic separation below which two points are the same point
SAME_POINT_TOL = 1e-8


def ensure_disk_point(z: complex) -> complex:
    """Validate that z lies strictly inside the unit disk and return it; a
    NaN part fails the test."""
    z = complex(z)
    if not abs(z) < 1.0 - DISK_MARGIN:
        raise ValueError(f"point {z!r} is not strictly inside the unit disk")
    return z


def ensure_unimodular(w: complex) -> complex:
    """Validate that |w| = 1 within UNIMODULAR_TOL and return w; a NaN part
    fails the test."""
    w = complex(w)
    if not abs(abs(w) - 1.0) <= UNIMODULAR_TOL:
        raise ValueError(f"point {w!r} is not unimodular (|w| = {abs(w)!r})")
    return w


def pseudo_hyperbolic(z: complex, w: complex) -> float:
    """Pseudo-hyperbolic distance |(w - z) / (1 - conj(w) z)| in [0, 1)."""
    z = ensure_disk_point(z)
    w = ensure_disk_point(w)
    return abs((w - z) / (1.0 - w.conjugate() * z))


def same_point(z: complex, w: complex) -> bool:
    """True when z and w are the same point: pseudo-hyperbolic distance at
    most SAME_POINT_TOL.  Unvalidated, since unpolished roots may sit just
    outside the disk; a zero denominator means the points differ."""
    den = 1.0 - w.conjugate() * z
    return den != 0 and abs((w - z) / den) <= SAME_POINT_TOL


def hyperbolic_distance(z: complex, w: complex) -> float:
    """Hyperbolic metric log((1 + rho) / (1 - rho)); maps rho in [0,1) onto [0,inf)."""
    rho = pseudo_hyperbolic(z, w)
    return math.log((1.0 + rho) / (1.0 - rho))


def unit_direction(a: complex) -> complex:
    """a/|a| computed stably even for subnormal components."""
    m = max(abs(a.real), abs(a.imag))
    if m == 0.0:
        raise ValueError("zero has no direction")
    b = complex(a.real / m, a.imag / m)
    return b / abs(b)


def mobius_factor(a: complex, z: complex) -> complex:
    """Mobius factor vanishing at a: -(a/|a|)(z - a)/(1 - conj(a) z); identity for a = 0."""
    a = ensure_disk_point(a)
    z = complex(z)
    if a == 0:
        return z
    return -unit_direction(a) * (z - a) / (1.0 - a.conjugate() * z)


def julia_quotient(z: complex, omega: complex) -> float:
    """Boundary quotient |z - omega|^2 / (1 - |z|^2) for a contact point omega."""
    z = ensure_disk_point(z)
    omega = ensure_unimodular(omega)
    return abs(z - omega) ** 2 / (1.0 - abs(z) ** 2)


@dataclass(frozen=True)
class Horodisk:
    """Sublevel set {z : |z - contact|^2 / (1 - |z|^2) < level}.

    Internally tangent to the unit circle at the contact point; the Euclidean
    center and radius satisfy |center| + radius = 1.
    """

    contact: complex
    level: float

    def __post_init__(self):
        ensure_unimodular(self.contact)
        # an infinite level has center 0 and radius inf / inf = nan
        if not 0 < self.level < math.inf:
            raise ValueError(f"horodisk level must be positive and finite, got {self.level!r}")

    @property
    def center(self) -> complex:
        return self.contact / (self.level + 1.0)

    @property
    def radius(self) -> float:
        return self.level / (self.level + 1.0)

    def contains(self, z: complex) -> bool:
        return julia_quotient(z, self.contact) < self.level

    def quotient(self, z: complex) -> float:
        return julia_quotient(z, self.contact)


def cayley_to_rhp(z: complex) -> complex:
    """Map the disk onto the right half-plane by z -> (1 + z)/(1 - z).

    The boundary point 1 corresponds to infinity; 0 maps to 1.  A NaN
    point fails the test.
    """
    z = complex(z)
    if not abs(z) < 1.0:
        raise ValueError(f"cayley_to_rhp requires |z| < 1, got {z!r}")
    return (1.0 + z) / (1.0 - z)


def in_halfplane(w: complex) -> bool:
    """Whether w is in the open right half-plane; a NaN part fails the test."""
    return w.real > 0.0 and not math.isnan(w.imag)


def cayley_from_rhp(w: complex) -> complex:
    """Inverse of cayley_to_rhp: w -> (w - 1)/(w + 1) for Re w > 0; a NaN
    part fails the test."""
    w = complex(w)
    if not in_halfplane(w):
        raise ValueError(f"cayley_from_rhp requires Re w > 0, got {w!r}")
    return (w - 1.0) / (w + 1.0)


def halfplane_pseudo_hyperbolic(z: complex, w: complex) -> float:
    """Pseudo-hyperbolic distance |(w - z)/(w + conj(z))| on the right half-plane.

    Equals the disk distance of the Cayley preimages; stable for large |w|.
    A NaN part fails the test.
    """
    z, w = complex(z), complex(w)
    if not (in_halfplane(z) and in_halfplane(w)):
        raise ValueError("half-plane points need positive real part")
    return abs((w - z) / (w + z.conjugate()))

