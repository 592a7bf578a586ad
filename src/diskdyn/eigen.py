"""Eigenfunctions of composition: candidates Psi with Psi(f(z)) = tau Psi(z).

Two constructions are provided.  Truncated grand-orbit products take the
enumerated node multiset as a zero set; as the truncation deepens, the ratio
Psi(f(z))/Psi(z) settles toward a unimodular constant tau, estimated away
from the zeros (ADMISSIBLE_RADIUS, by orbits._same_pairs).  The truncations
of one grand orbit at increasing depths are prefixes of one product, so
prefix_samples reads them all from one factor table per sample point (a
prefix of at most 32 zeros goes through evaluate) and one radius search.
Exponentials of a linearizer, u_theta = exp(i theta h) with
h(f(z)) = h(z) + 1, give exact eigenfunctions with eigenvalue exp(i theta)
wherever Im h >= 0 keeps them bounded.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .abel import translation_abel, worst_residual
from .geometry import cayley_to_rhp, ensure_disk_point, mobius_factor
from .orbits import GrandOrbitTruncation, _same_pairs
from .selfmap import _SCALAR_MAX_ZEROS, FiniteBlaschkeProduct, _factor_vector, evaluate

# samples closer than this (pseudo-hyperbolic) to a zero of the candidate
# are excluded from ratio estimation
ADMISSIBLE_RADIUS = 0.05


class UnboundedCandidateWarning(UserWarning):
    """The supplied linearizer takes values with negative imaginary part."""


def build_truncated_eigenfunction(truncation: GrandOrbitTruncation) -> FiniteBlaschkeProduct:
    """Product of the zero factors over the truncation nodes, gamma = 1.

    Factor order is the deterministic node enumeration order, so repeated
    builds give bit-identical values.  The nodes are grand_orbit's, distinct
    and validated, so they are taken as they are (no check or merge again).
    """
    nodes = truncation.nodes
    if not nodes:
        raise ValueError("cannot build a product over an empty truncation")
    return FiniteBlaschkeProduct._from_table(1.0 + 0.0j, [(p, m) for p, m, _, _ in nodes])


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


def _near_zeros(samples, images, product) -> tuple[np.ndarray, np.ndarray]:
    """Pairs (k, j) of a sample or image within pseudo-hyperbolic
    ADMISSIBLE_RADIUS of zero j of product, from one radius search
    (orbits._same_pairs): point k is sample k % len(samples), itself for
    k < len(samples) and its image after."""
    points = np.array([ensure_disk_point(z) for z in samples]
                      + [ensure_disk_point(fz) for fz in images], dtype=complex)
    zeros = product._stack.zeros[0]
    return _same_pairs(points.real, points.imag, zeros.real, zeros.imag,
                       radius=ADMISSIBLE_RADIUS)


def _kept(values, near) -> list[bool]:
    """The samples estimate_tau keeps: B(z) != 0, and neither the sample nor
    its image is one of the points near (indices as _near_zeros gives)."""
    kept = [bz != 0 for _, bz, _ in values]
    for k in near:
        kept[k % len(values)] = False
    return kept


def prefix_samples(truncation: GrandOrbitTruncation, depths, f, samples) -> list[tuple]:
    """(B_d, values, kept) for each depth d in depths: B_d is
    build_truncated_eigenfunction(truncation.prefix(d)), values
    sample_values(B_d, f, samples) and kept the mask estimate_tau keeps.

    Nodes come generation by generation, so B_d is the product of the first
    n_d factors of the deepest.  Each sample and image gets the deepest's
    factor vector once (selfmap._factor_vector); B_d there is gamma times its
    running product at n_d - 1, which numpy multiplies in np.prod's order,
    so evaluate's value bit for bit.  A prefix of at most _SCALAR_MAX_ZEROS
    zeros goes through evaluate, whose scalar loop rounds otherwise.  One
    radius search decides admissibility at every depth: a pair counts at
    depth d if its zero is among the first n_d.
    """
    if not all(0 <= d <= truncation.backward_depth for d in depths):
        raise ValueError(f"depths must lie in [0, {truncation.backward_depth}], got {depths}")
    counts = [len(truncation.prefix(d).nodes) for d in depths]
    deepest = build_truncated_eigenfunction(truncation)
    products = [FiniteBlaschkeProduct._from_table(deepest.gamma, deepest.zeros[:n])
                if n < len(deepest.zeros) else deepest for n in counts]
    widest = products[counts.index(max(counts))]
    images = [evaluate(f, z) for z in samples]
    points = [*map(complex, samples), *images]
    # each prefix's values at the samples, then at the images
    table = [[evaluate(b, z) for z in points] if n <= _SCALAR_MAX_ZEROS else []
             for b, n in zip(products, counts)]
    wide = [row for row, n in zip(table, counts) if n > _SCALAR_MAX_ZEROS]
    ends = np.array([n - 1 for n in counts if n > _SCALAR_MAX_ZEROS], dtype=np.intp)
    if wide:
        for z in points:
            # the running product in place: a second array per point left
            # a process running eigen jobs about 0.08 MB higher in peak RSS
            factors = _factor_vector(widest, z)
            for row, value in zip(wide, np.cumprod(factors, out=factors)[ends]):
                row.append(complex(widest.gamma * value))
    near, zero = _near_zeros(samples, images, widest)
    m = len(samples)
    result = []
    for b, n, row in zip(products, counts, table):
        values = list(zip(images, row[:m], row[m:]))
        result.append((b, values, _kept(values, near[zero < n].tolist())))
    return result


def estimate_tau(candidate, f, samples, values=None, kept=None) -> TauEstimate:
    """Geometric median of the ratios candidate(f(z))/candidate(z).

    Samples within pseudo-hyperbolic ADMISSIBLE_RADIUS of a zero of a
    product candidate, or whose image is, are discarded, as one radius
    search (orbits._same_pairs) finds them; at least 8 must survive.
    values, if given, is sample_values(candidate, f, samples), and kept the
    mask of samples to keep (prefix_samples gives both).
    """
    if values is None:
        values = sample_values(candidate, f, samples)
    if kept is None:
        near = []
        if isinstance(candidate, FiniteBlaschkeProduct):
            near = _near_zeros(samples, [fz for fz, _, _ in values], candidate)[0].tolist()
        kept = _kept(values, near)
    ratios = [bfz / bz for (_, bz, bfz), keep in zip(values, kept) if keep]
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
    return worst_residual(abs(bfz - tau * bz) for _, bz, bfz in values)


def square_trick_check(candidate, f, samples, values=None) -> float:
    """Residual of the squared candidate as a fixed vector: max |B(f(z))^2 - B(z)^2|.

    For tau near -1 this is bounded by (|B(f(z))| + |B(z)|) times the tau = -1
    residual on the same samples.  values, if given, is
    sample_values(candidate, f, samples).
    """
    if values is None:
        values = sample_values(candidate, f, samples)
    return worst_residual(abs(bfz ** 2 - bz ** 2) for _, bz, bfz in values)


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
