"""The randomized property suites of acceptance criterion 10.

Random finite Blaschke products of degree 1 to 4 must contract the
pseudo-hyperbolic distance (Schwarz-Pick), have fibers of their degree that
map back onto the target, composites included, and keep |B| = 1 on the
circle; Mobius factors must preserve the distance.  Each section draws
every product and point first, in the order of a loop over products, then
evaluates and solves the draws in lanes over product stacks
(``diskdyn.stacks``), one stack per degree, and takes its maxima in draw
order; a fiber count mismatch ends its section at that draw, as the loop
does.  What it reports is that loop's, bit for bit
(``tests/test_acceptance.py`` keeps the loop as the reference).
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from . import lanes, selfmap
from .geometry import (
    DISK_MARGIN,
    UNIMODULAR_TOL,
    ensure_disk_point,
    mobius_factor,
    pseudo_hyperbolic,
)
from .stacks import _ProductStack

# sampling sizes for the randomized suites; the seed is fixed below
PROPERTY_CASES = 1000


def _random_product(rng, max_degree=4):
    """(gamma, zeros) of a random product: degree 1 to max_degree, simple
    zeros within 0.85."""
    d = int(rng.integers(1, max_degree + 1))
    zeros = []
    for _ in range(d):
        r = 0.85 * math.sqrt(rng.random())
        phi = 2.0 * math.pi * rng.random()
        zeros.append(r * cmath.exp(1j * phi))
    gamma = cmath.exp(2j * math.pi * rng.random())
    return gamma, zeros


def _random_blaschke(rng, max_degree=4):
    return selfmap.FiniteBlaschkeProduct(*_random_product(rng, max_degree))


def _random_disk_point(rng, radius=0.95):
    return radius * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())


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


def _running_max(values: np.ndarray) -> np.ndarray:
    """Python's max over the last axis, taken in order: a later value
    replaces the running one only where it is greater (so a NaN stays only
    in first place)."""
    top = values[..., 0]
    for k in range(1, values.shape[-1]):
        top = np.where(values[..., k] > top, values[..., k], top)
    return top


def _drawn(rng, draw, count):
    """count draws draw(rng), and a function that rewinds rng to just after
    draw k, where the per-product loop that breaks at draw k leaves it."""
    state = rng.bit_generator.state

    def rewind(k):
        rng.bit_generator.state = state
        for _ in range(k + 1):
            draw(rng)

    return [draw(rng) for _ in range(count)], rewind


def _first_mismatch(fibers, degrees):
    """Index of the first fiber whose multiplicities do not sum to its
    degree, or None; a failed fiber before it is raised."""
    for k, (fiber, degree) in enumerate(zip(fibers, degrees)):
        if isinstance(fiber, selfmap.RootFindingError):
            raise fiber
        if sum(m for _, m in fiber) != degree:
            return k
    return None


def _contraction_gap(rng) -> float:
    """Worst rho(f(z), f(w)) - rho(z, w) over random products and pairs."""
    draws = [(_random_product(rng), _random_disk_point(rng), _random_disk_point(rng))
             for _ in range(PROPERTY_CASES)]
    stacks, which, row = _stack_products([p for p, _, _ in draws])
    zw = np.array([(z, w) for _, z, w in draws])
    fzw = _stacked_values(stacks, which, row, zw)
    fz, fw, z, w = fzw[:, 0], fzw[:, 1], zw[:, 0], zw[:, 1]
    with np.errstate(all="ignore"):
        gaps = (lanes.pseudo_hyperbolic(fz.real, fz.imag, fw.real, fw.imag)
                - lanes.pseudo_hyperbolic(z.real, z.imag, w.real, w.imag))
    # pseudo_hyperbolic validates its points: a pair with a point not
    # strictly inside the disk, or a NaN lane, goes through it, which raises
    inside = ((np.hypot(fzw.real, fzw.imag) < 1.0 - DISK_MARGIN)
              & (np.hypot(zw.real, zw.imag) < 1.0 - DISK_MARGIN)).all(axis=1)
    gaps = gaps.tolist()
    for k in np.flatnonzero(~inside | np.isnan(gaps)).tolist():
        _, zk, wk = draws[k]
        gaps[k] = pseudo_hyperbolic(*fzw[k].tolist()) - pseudo_hyperbolic(zk, wk)
    return functools.reduce(max, gaps, 0.0)


def _back_evaluation(rng) -> tuple[float, str | None]:
    """Worst |f(z) - w| over the fibers of random products, and the count
    mismatch that stops the loop, if any."""
    draws, rewind = _drawn(rng, lambda rng: (_random_product(rng), _random_disk_point(rng, 0.8)),
                           PROPERTY_CASES)
    stacks, which, row = _stack_products([p for p, _ in draws])
    targets = [ensure_disk_point(w) for _, w in draws]
    fibers = selfmap._stacked_fibers(stacks, which, row, targets)
    degrees = [stacks[s].degree for s in which.tolist()]
    mismatch = _first_mismatch(fibers, degrees)
    if mismatch is not None:
        rewind(mismatch)
        fibers = fibers[:mismatch]
    # the fibers padded to one width with their first point, which leaves
    # each running max as it is
    width = max(degrees)
    points = np.array([[z for z, _ in fiber] + [fiber[0][0]] * (width - len(fiber))
                       for fiber in fibers], dtype=complex).reshape(len(fibers), width)
    n = len(fibers)
    back = _stacked_values(stacks, which[:n], row[:n], points) - np.array(targets[:n])[:, None]
    worst = functools.reduce(max, _running_max(np.hypot(back.real, back.imag)).tolist(), 0.0)
    if mismatch is None:
        return worst, None
    return worst, f"fiber count mismatch for degree {degrees[mismatch]}"


def _composite_counts(rng) -> str | None:
    """The count mismatch that stops the loop over the fibers of random
    two-stage composites, if any."""
    draws, rewind = _drawn(rng, lambda rng: (_random_product(rng, 3), _random_product(rng, 3),
                                             _random_disk_point(rng, 0.8)), 200)
    # compose(f, g) applies g first
    stages = [_stack_products([g for _, g, _ in draws]),
              _stack_products([f for f, _, _ in draws])]
    fibers = selfmap._composite_fibers(stages, np.arange(len(draws)),
                                       [ensure_disk_point(w) for _, _, w in draws])
    inner, outer = ([stacks[s].degree for s in which.tolist()] for stacks, which, _ in stages)
    mismatch = _first_mismatch(fibers, [a * b for a, b in zip(inner, outer)])
    if mismatch is None:
        return None
    rewind(mismatch)
    return "composite fiber count != degree product"


def _boundary_modulus(rng) -> float:
    """Worst ||f(zeta)| - 1| over random products and 64 circle points."""
    circle = np.exp(2j * math.pi * np.arange(256) / 256)[::4]
    products = [_random_product(rng) for _ in range(PROPERTY_CASES // 4)]
    stacks, which, row = _stack_products(products)
    values = _stacked_values(stacks, which, row,
                             np.broadcast_to(circle, (len(products), len(circle))))
    moduli = np.abs(np.hypot(values.real, values.imag) - 1.0)
    return functools.reduce(max, _running_max(moduli).tolist(), 0.0)


def _property_suites(tol) -> tuple[bool, str]:
    """(passed, detail) of criterion 10 at the tolerances tol."""
    rng = np.random.default_rng(987654321)
    failures = []

    worst_sp = _contraction_gap(rng)
    if worst_sp > tol["schwarz_pick"]:
        failures.append(f"contraction violated by {worst_sp:.2e}")

    worst_back, mismatch = _back_evaluation(rng)
    if mismatch:
        failures.append(mismatch)
    if worst_back > tol["preimage_back_eval"]:
        failures.append(f"fiber back-evaluation off by {worst_back:.2e}")

    mismatch = _composite_counts(rng)
    if mismatch:
        failures.append(mismatch)

    worst_mod = _boundary_modulus(rng)
    if worst_mod > tol["boundary_modulus"]:
        failures.append(f"boundary modulus off by {worst_mod:.2e}")

    worst_mi = 0.0
    for _ in range(PROPERTY_CASES):
        a = _random_disk_point(rng, 0.9)
        z, w = _random_disk_point(rng), _random_disk_point(rng)
        worst_mi = max(
            worst_mi,
            abs(
                pseudo_hyperbolic(mobius_factor(a, z), mobius_factor(a, w))
                - pseudo_hyperbolic(z, w)
            ),
        )
    if worst_mi > tol["mobius_invariance"]:
        failures.append(f"distance invariance off by {worst_mi:.2e}")

    ok = not failures
    detail = "all randomized invariants hold" if ok else "; ".join(failures)
    detail += (
        f" (contraction {worst_sp:.1e}, back-eval {worst_back:.1e}, "
        f"modulus {worst_mod:.1e}, invariance {worst_mi:.1e})"
    )
    return ok, detail
