"""Eigenfunctions of composition: candidates Psi with Psi(f(z)) = tau Psi(z).

Two constructions are provided.  Truncated grand-orbit products take the
enumerated node multiset as a zero set; as the truncation deepens, the ratio
Psi(f(z))/Psi(z) settles toward a unimodular constant.  Exponentials of a
linearizer, u_theta = exp(i theta h) with h(f(z)) = h(z) + 1, give exact
eigenfunctions with eigenvalue exp(i theta) wherever Im h >= 0 keeps them
bounded.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import lanes
from .abel import translation_abel
from .geometry import cayley_to_rhp, ensure_disk_point, mobius_factor
from .orbits import GrandOrbitTruncation
from .selfmap import FiniteBlaschkeProduct, evaluate

# samples closer than this (pseudo-hyperbolic) to a zero of the candidate
# are excluded from ratio estimation
ADMISSIBLE_RADIUS = 0.05


class UnboundedCandidateWarning(UserWarning):
    """The supplied linearizer takes values with negative imaginary part."""


def build_truncated_eigenfunction(truncation: GrandOrbitTruncation) -> FiniteBlaschkeProduct:
    """Product of the zero factors over the truncation nodes, gamma = 1.

    Factor order is the deterministic node enumeration order, so repeated
    builds give bit-identical values.
    """
    if not truncation.nodes:
        raise ValueError("cannot build a product over an empty truncation")
    return FiniteBlaschkeProduct(1.0, tuple((n.point, n.multiplicity) for n in truncation.nodes))


@dataclass(frozen=True)
class TauEstimate:
    tau: complex
    dispersion: float
    sample_count: int


def _geometric_median(points: list[complex]) -> complex:
    """Weiszfeld iteration from the componentwise median; deterministic."""
    pts = sorted(points, key=lambda p: (p.real, p.imag))
    xs = sorted(p.real for p in pts)
    ys = sorted(p.imag for p in pts)
    mid = len(pts) // 2
    x = complex(xs[mid], ys[mid])
    for _ in range(200):
        num = 0.0 + 0.0j
        den = 0.0
        coincident = None
        for p in pts:
            d = abs(p - x)
            if d < 1e-15:
                coincident = p
                continue
            num += p / d
            den += 1.0 / d
        if den == 0.0:
            return coincident if coincident is not None else x
        nxt = num / den
        if coincident is not None:
            # stay put if the coincident point is already optimal
            if abs(nxt - x) * den <= 1.0:
                return x
        if abs(nxt - x) < 1e-15:
            return nxt
        x = nxt
    return x


def _admissible(z: complex, zeros: tuple[np.ndarray, np.ndarray]) -> bool:
    """pseudo_hyperbolic(z, a) > ADMISSIBLE_RADIUS for every zero a, with
    the zeros as (re, im) arrays.  Each distance that can decide it is the
    scalar one bit for bit, from lanes.pseudo_hyperbolic."""
    z = ensure_disk_point(z)
    ar, ai = zeros
    dr, di = ar - z.real, ai - z.imag
    # |1 - conj(a) z| < 2, so a zero more than twice the radius away (with a
    # margin for rounding) lies beyond it
    near = dr * dr + di * di <= (2.0 * ADMISSIBLE_RADIUS) ** 2 * (1.0 + 1e-9)
    if not near.any():
        return True
    rho = lanes.pseudo_hyperbolic(z.real, z.imag, ar[near], ai[near])
    return bool((rho > ADMISSIBLE_RADIUS).all())


def ring_samples(radius: float, count: int = 16) -> list[complex]:
    """Equally spaced sample points on |z| = radius."""
    return [radius * cmath.exp(2j * math.pi * k / count) for k in range(count)]


def sample_values(candidate, f, samples) -> list[tuple[complex, complex, complex]]:
    """(f(z), candidate(z), candidate(f(z))) at each sample z: what
    estimate_tau and eigen_residual read, so that a caller running both
    evaluates the candidate once per point."""
    values = []
    for z in samples:
        fz = evaluate(f, z)
        values.append((fz, candidate(z), candidate(fz)))
    return values


def estimate_tau(candidate, f, samples, values=None) -> TauEstimate:
    """Geometric median of the ratios candidate(f(z))/candidate(z).

    Samples within the admissibility radius of a zero of a product
    candidate, or whose image is, are discarded; at least 8 must survive.
    values, if given, is sample_values(candidate, f, samples).
    """
    if values is None:
        values = sample_values(candidate, f, samples)
    zeros = None
    if isinstance(candidate, FiniteBlaschkeProduct):
        zeros = (candidate._stack.zeros[0].real, candidate._stack.zeros[0].imag)
    ratios: list[complex] = []
    for z, (fz, bz, bfz) in zip(samples, values):
        if zeros is not None and not (_admissible(z, zeros) and _admissible(fz, zeros)):
            continue
        if bz == 0:
            continue
        ratios.append(bfz / bz)
    if len(ratios) < 8:
        raise ValueError(
            f"only {len(ratios)} admissible samples; move the sample ring away "
            f"from the zero set"
        )
    tau = _geometric_median(ratios)
    dispersion = max(abs(r - tau) for r in ratios)
    return TauEstimate(tau=tau, dispersion=dispersion, sample_count=len(ratios))


def eigen_residual(candidate, f, tau: complex, samples, values=None) -> float:
    """max over samples of |candidate(f(z)) - tau candidate(z)|; values, if
    given, is sample_values(candidate, f, samples)."""
    if values is None:
        values = sample_values(candidate, f, samples)
    worst = 0.0
    for _, bz, bfz in values:
        worst = max(worst, abs(bfz - tau * bz))
    return worst


def square_trick_check(candidate, f, samples) -> float:
    """Residual of the squared candidate as a fixed vector: max |B(f(z))^2 - B(z)^2|.

    For tau near -1 this is bounded by (|B(f(z))| + |B(z)|) times the tau = -1
    residual on the same samples.
    """
    worst = 0.0
    for z in samples:
        worst = max(worst, abs(candidate(evaluate(f, z)) ** 2 - candidate(z) ** 2))
    return worst


# ----------------------------------------------------------------------------
# exponential eigenfunctions from a linearizer
# ----------------------------------------------------------------------------


def translation_abel_disk(z: complex) -> complex:
    """Exact disk-coordinate linearizer of the translation preset.

    h(z) = i (1 + z)/(1 - z); image is the upper half-plane, so every
    u_theta built on it is bounded by 1.
    """
    return translation_abel(cayley_to_rhp(z))


def u_theta(theta: float, abel_handle, z: complex) -> complex:
    """exp(i theta h(z)) for a linearizer handle h on disk points.

    Satisfies u(f(z)) = exp(i theta) u(z) up to theta times the linearizer
    residual; bounded by 1 wherever Im h >= 0.  A handle taking values with
    Im h < -1e-9 triggers UnboundedCandidateWarning.
    """
    if not 0.0 <= theta <= 2.0 * math.pi:
        raise ValueError(f"theta must lie in [0, 2 pi], got {theta}")
    hz = complex(abel_handle(z))
    if hz.imag < -1e-9:
        warnings.warn(
            f"linearizer value {hz!r} has negative imaginary part; "
            f"u_theta is not bounded there",
            UnboundedCandidateWarning,
            stacklevel=2,
        )
    return cmath.exp(1j * theta * hz)


@dataclass(frozen=True)
class SingularEigenfunction:
    """u_theta as an evaluable object; theta = 0 is the constant 1."""

    theta: float
    abel_handle: object

    def __call__(self, z: complex) -> complex:
        return u_theta(self.theta, self.abel_handle, z)

    @property
    def tau(self) -> complex:
        return cmath.exp(1j * self.theta)


# ----------------------------------------------------------------------------
# post-composition with a zero factor
# ----------------------------------------------------------------------------


def frostman_shift(u, a: complex):
    """Post-compose a fixed vector with the zero factor at a: z -> m_a(u(z)).

    Invariance u(f(z)) = u(z) survives post-composition exactly; at residual
    level r it degrades by at most sup |m_a'| = (1 + |a|)/(1 - |a|).
    """
    a = ensure_disk_point(a)
    if a == 0:
        return u

    def shifted(z: complex) -> complex:
        return mobius_factor(a, u(z))

    return shifted
