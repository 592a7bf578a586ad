"""Product stacks: finite Blaschke products of one zero pattern, one per row.

A stack holds its products' constants as per-row arrays, so one lane batch
(``diskdyn.lanes``) or one polynomial pass serves many products, each row
reading its own product's constants; ``selfmap`` solves fibers over stacks,
and a single product is a stack of one.  ``_substitute`` builds the
polynomial forms of every row, as the per-product form does, bit for bit.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import lanes


class _ProductStack:
    """Finite Blaschke products of one zero pattern, one product per row.

    Row r is gamma[r] times the product over columns j of the factor of
    zeros[r, j] to the power mults[j]; a column is the origin in every row
    or in none (the mask ``_origin``).  ``factors`` holds per
    column (a, conj(a), u, mult) and ``slopes`` u (1 - |a|^2), as (rows, 1)
    arrays built bit for bit as FiniteBlaschkeProduct and _jet_fbp build
    these scalars, so that each row of a lane batch reads its own product's
    constants.  A single product is a stack of one, its one array table
    (FiniteBlaschkeProduct._stack); a row's product is rebuilt from the row.
    u, when a caller has that column already (a small product's factors),
    is taken as it is; otherwise it comes from lanes.direction.
    """

    def __init__(self, gamma, zeros, mults, u=None):
        self.gamma = gamma[:, None]
        self.zeros = zeros
        self.mults = tuple(mults)
        self.degree = sum(self.mults)
        self._conj = zeros.conj()
        self._mult = np.array(self.mults)
        self._origin = (zeros == 0).all(axis=0)
        if u is None:
            # u = -unit_direction(a), and 1 at the origin (which has no direction)
            ur, ui = lanes.direction(np.where(self._origin, 1.0, zeros.real), zeros.imag)
            u = np.empty(zeros.shape, dtype=complex)
            u.real = np.where(self._origin, 1.0, -ur)
            u.imag = np.where(self._origin, 0.0, -ui)
        self._u = u

    def __len__(self) -> int:
        return len(self.gamma)

    @property
    def factors(self) -> tuple:
        return tuple((self.zeros[:, j:j + 1], self._conj[:, j:j + 1], self._u[:, j:j + 1], m)
                     for j, m in enumerate(self.mults))

    @property
    def slopes(self) -> tuple:
        return tuple(self._slope[:, j:j + 1] for j in range(len(self.mults)))

    @cached_property
    def _slope(self) -> np.ndarray:
        # u (1 - abs(a) ** 2), abs(a) ** 2 by Python's float pow (libm's
        # pow), which numpy's square and power differ from in the last bit
        # for some inputs; 0 at the origin
        off = ~self._origin
        h = np.hypot(self.zeros.real[:, off], self.zeros.imag[:, off])
        s = 1.0 - np.array([x ** 2 for x in h.ravel().tolist()]).reshape(h.shape)
        u = self._u[:, off]
        slope = np.zeros(self.zeros.shape, dtype=complex)
        slope.real[:, off], slope.imag[:, off] = lanes.mul(u.real, u.imag, s, 0.0)
        return slope

    @cached_property
    def _raised(self) -> tuple[np.ndarray, np.ndarray]:
        # the columns whose multiplicity is not 1, and those multiplicities
        cols = np.flatnonzero(self._mult != 1)
        return cols, self._mult[cols]

    def take(self, rows) -> _ProductStack:
        """The stack of the given rows, in that order (for lanes), built anew
        from their constants, so every cache is its rows' own; a stack of
        one broadcasts as it is."""
        if len(self) == 1:
            return self
        return _ProductStack(self.gamma[rows, 0], self.zeros[rows], self.mults, self._u[rows])

    @cached_property
    def coefficients(self) -> tuple[np.ndarray, np.ndarray]:
        """Per row, the coefficients (low to high) of N, D with f = gamma N / D:
        ``_substitute`` of z = [0, 1] / [1, 0], so a zero at the origin
        leaves trailing zeros in D."""
        return _substitute(self, np.array([0.0, 1.0 + 0.0j]), np.array([1.0 + 0.0j, 0.0]))


def _convolve_rows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """np.convolve(x[r], y[r]) of each row r, bit for bit.

    np.convolve takes one dot product per output coefficient: a window of
    the longer sequence against the reversed shorter one, clipped at both
    ends.  Here the windows of each length are one stacked (1, k) @ (k, 1)
    matmul, which numpy computes with the same dot routine (BLAS zdotu for
    complex), over the same terms in the same order.  A single row goes to
    np.convolve itself, which is cheaper for one product.
    """
    if len(x) == 1:
        return np.convolve(x[0], y[0])[None]
    if y.shape[1] > x.shape[1]:
        x, y = y, x
    n1, n2 = x.shape[1], y.shape[1]
    rev = np.ascontiguousarray(y[:, ::-1])
    out = np.empty((len(x), n1 + n2 - 1), dtype=complex)
    win = np.lib.stride_tricks.sliding_window_view(x, n2, axis=1)
    out[:, n2 - 1:n1] = (win[:, :, None, :] @ rev[:, None, :, None])[:, :, 0, 0]
    for k in range(1, n2):
        # the clipped windows of length k at the two ends
        ends = np.stack([x[:, :k], x[:, n1 - k:]], axis=1)[:, :, None, :]
        tails = np.stack([rev[:, n2 - k:], rev[:, :k]], axis=1)[:, :, :, None]
        out[:, [k - 1, n1 + n2 - 1 - k]] = (ends @ tails)[:, :, 0, 0]
    return out


def _substitute(f: _ProductStack, a, b) -> tuple[np.ndarray, np.ndarray]:
    """N, D, a row per product of the stack f, with f(a / b) = gamma * N / D
    for coefficient arrays a, b (low to high) of equal length.

    Each zero factor u (z - c) / (1 - conj(c) z) becomes
    u (a - c b) / (b - conj(c) a), where the 1/b cancels; the origin's
    factor (c = 0, u = 1) is a / b.  N and D have equal length.  gamma is
    left to the caller: multiplying it in here changes fiber roots by
    rounding.  Products multiply by _convolve_rows, which is np.convolve
    row by row.
    """
    num = den = np.ones((len(f), 1), dtype=complex)
    for c, c_conj, u, mult in f.factors:
        fac_n, fac_d = u * (a - c * b), b - c_conj * a
        for _ in range(mult):
            num, den = _convolve_rows(num, fac_n), _convolve_rows(den, fac_d)
    return num, den
