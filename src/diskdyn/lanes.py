"""Lanes: float64 arrays that round like Python complex scalars.

A lane holds one complex number as the float64 pair (re, im), kept in two
arrays.  Every operation repeats CPython's own formula
(Objects/complexobject.c), so a lane result equals the Python complex result
bit for bit; numpy's complex ufuncs and np.abs of a complex array round
differently.  A float operand is promoted to complex(x, 0.0), as Python 3.10
to 3.13 do.  A division by exact 0, which Python raises, gives a NaN lane.

``value`` and ``jet`` evaluate a stack of finite Blaschke products
(``stacks._ProductStack``, a single product being a stack of one) the way
``selfmap._eval_fbp`` and ``selfmap._jet_fbp`` do, operation for operation,
which stay the definition; each row of lanes reads its own row's constants.
"""

from __future__ import annotations

import numpy as np

from .geometry import SAME_POINT_TOL


def mul(ar, ai, br, bi):
    """c_prod: a * b."""
    return ar * br - ai * bi, ar * bi + ai * br


def quot(ar, ai, br, bi):
    """_Py_c_quot: a / b, scaled by the larger of |b.real| and |b.imag|."""
    # the branch's operands picked per lane: (b.real, b.imag, a.real, a.imag)
    # when |b.real| >= |b.imag|, else (b.imag, b.real, a.imag, a.real)
    by_real = np.abs(br) >= np.abs(bi)
    big, small = np.where(by_real, br, bi), np.where(by_real, bi, br)
    p, q = np.where(by_real, ar, ai), np.where(by_real, ai, ar)
    # b = 0, where Python raises, is 0 / 0 here
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = small / big
        denom = big + small * ratio
        pr = p * ratio
        return (p + q * ratio) / denom, np.where(by_real, q - pr, pr - q) / denom


def pseudo_hyperbolic(zr, zi, wr, wi):
    """geometry.pseudo_hyperbolic(z, w) of validated points:
    |(w - z) / den| with den = 1.0 - conj(w) z; den = 0 gives a NaN lane."""
    xr, xi = mul(wr, -wi, zr, zi)
    return np.hypot(*quot(wr - zr, wi - zi, 1.0 - xr, 0.0 - xi))


def same_point(zr, zi, wr, wi):
    """geometry.same_point(z, w): pseudo-hyperbolic distance at most
    SAME_POINT_TOL; a NaN lane (den = 0) means the points differ."""
    return pseudo_hyperbolic(zr, zi, wr, wi) <= SAME_POINT_TOL


def direction(ar, ai):
    """geometry.unit_direction(a) of nonzero a: a scaled by the larger of
    |a.real| and |a.imag|, then divided by its abs as complex(abs, 0.0)."""
    m = np.maximum(np.abs(ar), np.abs(ai))
    br, bi = ar / m, ai / m
    return quot(br, bi, np.hypot(br, bi), 0.0)


def powu(xr, xi, n: int):
    """c_powu: z ** n for an integer n >= 1, by binary powering from 1."""
    rr, ri = 1.0, 0.0
    mask = 1
    while mask <= n:
        if n & mask:
            rr, ri = mul(rr, ri, xr, xi)
        mask <<= 1
        if mask <= n:
            xr, xi = mul(xr, xi, xr, xi)
    return rr, ri


def _factor(zr, zi, a, ac, u):
    """(den, fac) of a nonzero zero's factor: den = 1.0 - ac z and
    fac = u (z - a) / den."""
    pr, pi = mul(ac.real, ac.imag, zr, zi)
    er, ei = 1.0 - pr, 0.0 - pi
    return er, ei, *quot(*mul(u.real, u.imag, zr - a.real, zi - a.imag), er, ei)


def value(f, zr, zi):
    """The stack f at the lanes z = zr + i zi, as _eval_fbp's factor loop
    computes it, for at most selfmap._SCALAR_MAX_ZEROS zeros (numpy past it)."""
    vr, vi = f.gamma.real, f.gamma.imag
    for (a, ac, u, mult), origin in zip(f.factors, f._origin):
        if origin:
            fr, fi = zr, zi
        else:
            _, _, fr, fi = _factor(zr, zi, a, ac, u)
        if mult > 1:
            fr, fi = powu(fr, fi, mult)
        vr, vi = mul(vr, vi, fr, fi)
    return vr, vi


def jet(f, zr, zi):
    """(f, f') of the stack f at the lanes z = zr + i zi, as _jet_fbp
    computes them; f' from the stack's slopes u (1 - |a|^2)."""
    vr, vi, dr, di = f.gamma.real, f.gamma.imag, 0.0, 0.0
    for (a, ac, u, mult), k, origin in zip(f.factors, f.slopes, f._origin):
        if origin:
            fr, fi, gr, gi = zr, zi, 1.0, 0.0
        else:
            er, ei, fr, fi = _factor(zr, zi, a, ac, u)
            gr, gi = quot(k.real, k.imag, *powu(er, ei, 2))
        for _ in range(mult):
            xr, xi = mul(dr, di, fr, fi)
            yr, yi = mul(vr, vi, gr, gi)
            vr, vi = mul(vr, vi, fr, fi)
            dr, di = xr + yr, xi + yi
    return vr, vi, dr, di
