"""(n, values[n]) CSV rows of a float64 array, with the bytes of ``%.17g``.

Formatting a 100,001-value step sequence value by value was most of a
``step`` job's time.  Here each value's 17 significant digits come out of
numpy as an exact integer: for 1e-6 < |x| < 1e17 the decimal exponent e is
in [-6, 16], 10**(16 - e) is an exact double, and Dekker's error-free
product gives |x| * 10**(16 - e) exactly, which rounds half to even as
``%.17g`` rounds it.  Less their
trailing zeros, the digits fill one of a few cached ``%`` row templates,
which follow ``%g``'s choice of fixed or exponent notation.  Every other
value (0, -0.0, NaN, infinities, subnormals, |x| <= 1e-6, |x| >= 1e17) is
formatted by ``%.17g`` itself.
"""

from __future__ import annotations

from functools import cache

import numpy as np

# rows per block: 4,096-row blocks doubled the traced peak of writing a
# 100,001-row table (1.1 MB against 0.56 MB)
_ROWS = 2048
_POW10 = 10.0 ** np.arange(23)
_INT_POW10 = 10 ** np.arange(18, dtype=np.int64)
# a row template's code is (sign * 23 + e + 6) * 17 + digits - 1; the last
# code is the %.17g template of every other value
_FALLBACK = 2 * 23 * 17


def _two_product(a, b):
    """Dekker's error-free product: hi + lo == a * b exactly, hi = fl(a * b),
    by Veltkamp splits into 26-bit halves."""
    hi = a * b
    c, d = 134217729.0 * a, 134217729.0 * b
    ah, bh = c - (c - a), d - (d - b)
    al, bl = a - ah, b - bh
    return hi, ((ah * bh - hi) + ah * bl + al * bh) + al * bl


def _digits(x):
    """%.17g of each value of a float array as (template code, A, B) arrays:
    its 17 significant digits N, rounded half to even from the exact product
    |x| * 10**(16 - e), less their trailing zeros, split as divmod(N, 10**f)
    at the decimal point f digits from its end.  Values outside
    (1e-6, 1e17) in magnitude (0, NaN, infinities too) get _FALLBACK."""
    a = np.abs(x)
    exact = (a > 1e-6) & (a < 1e17)
    a = np.where(exact, a, 1.0)
    e = np.clip(np.floor(np.log10(a)), -6, 16).astype(np.int64)
    hi, lo = _two_product(a, _POW10[16 - e])
    # log10 may miss e by one next to a power of ten: compare hi + lo with
    # 10**16 and 10**17, both exact doubles, exactly
    above = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    below = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    if above.any() or below.any():
        e += above
        e -= below
        hi, lo = _two_product(a, _POW10[16 - e])
    # hi >= 2**53 is an even integer and |lo| <= ulp(hi) / 2, so rint(lo)
    # rounds hi + lo half to even; n stays below 10**17, as no double in
    # range lies within 5e-18 (relative) below a power of ten
    n = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    k = np.full(len(n), 17)
    while (zero := n % 10 == 0).any():
        k -= zero
        n = np.where(zero, n // 10, n)
    # %g: exponent notation below e = -4, fixed notation with
    # k - 1 - e decimals (none when that is not positive) from there
    f = np.clip(k - 1 - np.where(e < -4, 0, e), 0, 17)
    code = (np.signbit(x) * 23 + e + 6) * 17 + k - 1
    code[~exact] = _FALLBACK
    return code, *np.divmod(n, _INT_POW10[f])


@cache
def _templates():
    """The row templates "%d,<value>" and a newline, by code: each takes n, A
    and B, and %.0s consumes a slot that the value does not use."""
    templates = []
    for code in range(_FALLBACK):
        sign, e, k = code // (23 * 17), code // 17 % 23 - 6, code % 17 + 1
        if e < -4:
            value = "%d" + (f".%0{k - 1}d" if k > 1 else "%.0s") + f"e-{-e:02d}"
        elif k - 1 - e > 0:
            value = f"%d.%0{k - 1 - e}d"
        else:
            value = "%d" + "0" * (e - k + 1) + "%.0s"
        templates.append("%d," + "-" * sign + value + "\n")
    templates.append("%d,%.17g%.0s\n")
    return np.array(templates, dtype=object)


def write_values(fh, values) -> None:
    """Write the (n, values[n]) rows of a 1-D float64 array to a text file,
    _ROWS at a time: _digits makes each value's digits, and one % over the
    block's row templates writes them; the values it leaves to _FALLBACK
    are formatted by %.17g itself."""
    for start in range(0, len(values), _ROWS):
        x = values[start:start + _ROWS]
        code, whole, part = _digits(x)
        n = np.arange(start, start + len(x), dtype=np.int64)
        flat = np.column_stack([n, whole, part]).ravel().tolist()
        fallback = np.flatnonzero(code == _FALLBACK)
        for i, v in zip((3 * fallback + 1).tolist(), x[fallback].tolist()):
            flat[i] = v
        fh.write("".join(_templates()[code].tolist()) % tuple(flat))
