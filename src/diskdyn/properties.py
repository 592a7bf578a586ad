"""The randomized property suites of acceptance criterion 10.

Random finite Blaschke products of degree 1 to 4 must contract the
pseudo-hyperbolic distance (Schwarz-Pick), have fibers of their degree that
map back onto the target, composites included, and keep |B| = 1 on the
circle; Mobius factors must preserve the distance.  Each section draws
every product and point first, with the values and generator state of a
loop over products that draws a value at a time (``_random_case``), then
evaluates and solves the draws in lanes over product stacks
(``diskdyn.stacks``), one stack per degree, the Mobius factors in lanes
too (``diskdyn.lanes``), and checks every draw: a fiber
count mismatch fails its section, which goes on.  Each worst case folds as
``abel.worst_residual`` does, so a NaN fails its tolerance.  What it
reports is that loop's, bit for bit (``tests/test_acceptance.py`` keeps the
loop as the reference).
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from . import lanes, selfmap
from .geometry import DISK_MARGIN, UNIMODULAR_TOL, ensure_disk_point
from .stacks import _ProductStack

# sampling sizes for the randomized suites; the seed is fixed below
PROPERTY_CASES = 1000


def _disk_point(radius, u, v):
    """The point of the disk of this radius drawn from the uniforms u and v."""
    return radius * math.sqrt(u) * cmath.exp(2j * math.pi * v)


def _random_case(rng, max_degree=4, radii=()):
    """((gamma, zeros), [point, ...]): a random product, degree 1 to
    max_degree with simple zeros within 0.85, and a disk point of each
    radius drawn after it.

    One integers call draws the degree, and one random block the rest, with
    the values and order of a random() call each: integers takes 32-bit
    halves through the bit generator's buffer, which random() leaves alone,
    and random(n) is n random() calls.  The angles go through cmath, which
    rounds as libm does (numpy's own sin and cos need not).
    """
    d = int(rng.integers(1, max_degree + 1))
    u = rng.random(2 * d + 1 + 2 * len(radii)).tolist()
    zeros = [0.85 * math.sqrt(u[2 * j]) * cmath.exp(1j * (2.0 * math.pi * u[2 * j + 1]))
             for j in range(d)]
    gamma = cmath.exp(2j * math.pi * u[2 * d])
    rest = u[2 * d + 1:]
    points = [_disk_point(r, rest[2 * k], rest[2 * k + 1]) for k, r in enumerate(radii)]
    return (gamma, zeros), points


def _random_product(rng, max_degree=4):
    """(gamma, zeros) of a random product: degree 1 to max_degree, simple
    zeros within 0.85."""
    return _random_case(rng, max_degree)[0]


def _stack_products(products) -> tuple[list, np.ndarray, np.ndarray]:
    """Products given as (gamma, [zero, ...]) pairs, stacked: product i is
    row row[i] of stacks[which[i]], as FiniteBlaschkeProduct(gamma, zeros)
    builds it.  Products of d <= selfmap._SCALAR_MAX_ZEROS distinct zeros
    off the origin share the degree-d stack; every other product, in order,
    is a stack of one built by FiniteBlaschkeProduct (invalid input raises)."""
    which = np.zeros(len(products), dtype=np.intp)
    row = np.zeros(len(products), dtype=np.intp)
    stacks: list = []
    loose = []
    by_degree: dict[int, list[int]] = {}
    for i, (_, zeros) in enumerate(products):
        by_degree.setdefault(len(zeros), []).append(i)
    for d, members in by_degree.items():
        gamma = np.array([products[i][0] for i in members], dtype=complex)
        zeros = np.array([products[i][1] for i in members], dtype=complex)
        zeros = zeros.reshape(len(members), d)
        i, j = np.triu_indices(d, 1)
        inside = np.hypot(zeros.real, zeros.imag) < 1.0 - DISK_MARGIN
        plain = (inside & (zeros != 0)).all(axis=1)
        plain &= (zeros[:, i] != zeros[:, j]).all(axis=1) & (0 < d <= selfmap._SCALAR_MAX_ZEROS)
        plain &= np.abs(np.hypot(gamma.real, gamma.imag) - 1.0) <= UNIMODULAR_TOL
        members = np.array(members)
        which[members[plain]] = len(stacks)
        row[members[plain]] = np.arange(plain.sum())
        if plain.any():
            stacks.append(_ProductStack(gamma[plain], zeros[plain], [1] * d))
        loose += members[~plain].tolist()
    for i in sorted(loose):
        which[i] = len(stacks)
        stacks.append(selfmap.FiniteBlaschkeProduct(*products[i])._stack)
    return stacks, which, row


def _stacked_values(stacks, which, rows, points) -> np.ndarray:
    """selfmap.evaluate(product rows[i] of stacks[which[i]], points[i, j])
    for every i and j, as a complex array: in lanes of products by points,
    stack by stack.  A point outside the closed disk, a value that is not
    finite and a product of more than selfmap._SCALAR_MAX_ZEROS zeros go
    through evaluate, which raises its error."""
    z = np.asarray(points, dtype=complex)
    out = np.empty(z.shape, dtype=complex)
    for s, stack in enumerate(stacks):
        members = np.flatnonzero(which == s)
        with np.errstate(all="ignore"):
            out.real[members], out.imag[members] = lanes.value(
                stack.take(rows[members]), z.real[members], z.imag[members])
        if len(stack.mults) > selfmap._SCALAR_MAX_ZEROS:
            out[members] = np.nan
    scalar = ~(np.hypot(z.real, z.imag) <= 1.0 + 1e-12) | ~np.isfinite(out)
    for i, j in zip(*np.nonzero(scalar)):
        out[i, j] = selfmap.evaluate(selfmap._row_product(stacks[which[i]], rows[i]), z[i, j])
    return out


def _first_mismatch(fibers, degrees):
    """Index of the first fiber whose multiplicities do not sum to its
    degree, or None; the first failed fiber is raised before."""
    counts = [sum(m for _, m in selfmap._checked(fiber)) for fiber in fibers]
    return next((k for k, (n, d) in enumerate(zip(counts, degrees)) if n != d), None)


def _complex(re, im) -> np.ndarray:
    """The complex array of these parts, bit for bit (re + 1j * im is not)."""
    return np.stack((re, im), axis=-1).view(complex)[..., 0]


def _ensure_disk_points(points) -> None:
    """ensure_disk_point on the points row by row, as a loop over draws
    validates them: the first point not strictly inside the disk raises."""
    outside = ~(np.hypot(points.real, points.imag) < 1.0 - DISK_MARGIN)
    for p in points[outside][:1].tolist():
        ensure_disk_point(p)


def _distance_change(fz, fw, z, w):
    """rho(f(z), f(w)) - rho(z, w) in lanes, as pseudo_hyperbolic computes it."""
    return (lanes.pseudo_hyperbolic(fz.real, fz.imag, fw.real, fw.imag)
            - lanes.pseudo_hyperbolic(z.real, z.imag, w.real, w.imag))


def _contraction_gap(rng) -> float:
    """Worst rho(f(z), f(w)) - rho(z, w) over random products and pairs."""
    draws = [_random_case(rng, 4, (0.95, 0.95)) for _ in range(PROPERTY_CASES)]
    stacks, which, row = _stack_products([p for p, _ in draws])
    zw = np.array([points for _, points in draws])
    fzw = _stacked_values(stacks, which, row, zw)
    # pseudo_hyperbolic(f(z), f(w)) and pseudo_hyperbolic(z, w) validate
    _ensure_disk_points(np.hstack([fzw, zw]))
    return float(np.max(_distance_change(*fzw.T, *zw.T), initial=0.0))


def _back_evaluation(rng) -> tuple[float, str | None]:
    """Worst |f(z) - w| over the fibers of random products, and the first
    count mismatch, if any."""
    draws = [_random_case(rng, 4, (0.8,)) for _ in range(PROPERTY_CASES)]
    stacks, which, row = _stack_products([p for p, _ in draws])
    targets = [ensure_disk_point(w) for _, (w,) in draws]
    fibers = selfmap._stacked_fibers(stacks, which, row, targets)
    degrees = [stacks[s].degree for s in which.tolist()]
    mismatch = _first_mismatch(fibers, degrees)
    # each fiber point against the target of the draw that owns it
    owner = np.array([k for k, fiber in enumerate(fibers) for _ in fiber], dtype=np.intp)
    points = np.array([z for fiber in fibers for z, _ in fiber], dtype=complex)
    back = (_stacked_values(stacks, which[owner], row[owner], points[:, None])[:, 0]
            - np.array(targets)[owner])
    worst = float(np.max(np.hypot(back.real, back.imag), initial=0.0))
    if mismatch is None:
        return worst, None
    return worst, f"fiber count mismatch for degree {degrees[mismatch]}"


def _composite_counts(rng) -> str | None:
    """The fiber count mismatch of random two-stage composites, if any."""
    draws = [(_random_product(rng, 3), *_random_case(rng, 3, (0.8,))) for _ in range(200)]
    # compose(f, g) applies g first
    stages = [_stack_products([g for _, g, _ in draws]),
              _stack_products([f for f, _, _ in draws])]
    fibers = selfmap._composite_fibers(stages, np.arange(len(draws)),
                                       [ensure_disk_point(w) for _, _, (w,) in draws])
    inner, outer = ([stacks[s].degree for s in which.tolist()] for stacks, which, _ in stages)
    if _first_mismatch(fibers, [a * b for a, b in zip(inner, outer)]) is None:
        return None
    return "composite fiber count != degree product"


def _boundary_modulus(rng) -> float:
    """Worst ||f(zeta)| - 1| over random products and 64 circle points."""
    circle = np.exp(2j * math.pi * np.arange(256) / 256)[::4]
    products = [_random_product(rng) for _ in range(PROPERTY_CASES // 4)]
    stacks, which, row = _stack_products(products)
    values = _stacked_values(stacks, which, row,
                             np.broadcast_to(circle, (len(products), len(circle))))
    return float(np.max(np.abs(np.hypot(values.real, values.imag) - 1.0), initial=0.0))


def _mobius_invariance(rng) -> float:
    """Worst |rho(m_a(z), m_a(w)) - rho(z, w)| over random factors and pairs,
    m_a = geometry.mobius_factor(a, .) in lanes."""
    uv = rng.random(6 * PROPERTY_CASES).tolist()
    azw = np.array([_disk_point(r, uv[2 * k], uv[2 * k + 1])
                    for k, r in enumerate((0.9, 0.95, 0.95) * PROPERTY_CASES)]).reshape(-1, 3)
    a, z, w = azw.T
    with np.errstate(divide="ignore", invalid="ignore"):
        # -unit_direction(a) (z - a) / (1.0 - conj(a) z), and z where a = 0
        u = -_complex(*lanes.direction(a.real, a.imag))
        factors = [_complex(*lanes._factor(x.real, x.imag, a, a.conj(), u)[2:]) for x in (z, w)]
    maz, maw = (np.where(a == 0, x, m) for x, m in zip((z, w), factors))
    # mobius_factor(a, z) validates a, and pseudo_hyperbolic its points
    _ensure_disk_points(np.column_stack([a, maz, maw, z, w]))
    return float(np.max(np.abs(_distance_change(maz, maw, z, w)), initial=0.0))


def _property_suites(tol) -> tuple[bool, str]:
    """(passed, detail) of criterion 10 at the tolerances tol."""
    rng = np.random.default_rng(987654321)
    failures = []

    worst_sp = _contraction_gap(rng)
    if not worst_sp <= tol["schwarz_pick"]:
        failures.append(f"contraction violated by {worst_sp:.2e}")

    worst_back, mismatch = _back_evaluation(rng)
    if mismatch:
        failures.append(mismatch)
    if not worst_back <= tol["preimage_back_eval"]:
        failures.append(f"fiber back-evaluation off by {worst_back:.2e}")

    mismatch = _composite_counts(rng)
    if mismatch:
        failures.append(mismatch)

    worst_mod = _boundary_modulus(rng)
    if not worst_mod <= tol["boundary_modulus"]:
        failures.append(f"boundary modulus off by {worst_mod:.2e}")

    worst_mi = _mobius_invariance(rng)
    if not worst_mi <= tol["mobius_invariance"]:
        failures.append(f"distance invariance off by {worst_mi:.2e}")

    ok = not failures
    detail = "all randomized invariants hold" if ok else "; ".join(failures)
    detail += (
        f" (contraction {worst_sp:.1e}, back-eval {worst_back:.1e}, "
        f"modulus {worst_mod:.1e}, invariance {worst_mi:.1e})"
    )
    return ok, detail
