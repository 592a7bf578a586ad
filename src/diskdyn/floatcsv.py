"""(n, values[n]) CSV rows of a float64 array, with the bytes of ``%.17g``.

Formatting a 100,001-value step sequence value by value was most of a
``step`` job's time.  Here each value's 17 significant digits come out of
numpy as an exact integer: for 1e-6 < |x| < 1e17 the decimal exponent e is
in [-6, 16], 10**(16 - e) is an exact double, and Dekker's error-free
product gives |x| * 10**(16 - e) exactly, which rounds half to even as
``%.17g`` rounds it.

A block of rows is rendered as a (width, rows) uint8 array, one plane per
output column: the index digits, the comma, then the value in the layout
that most of the block's rows share (its sign, and ``%g``'s exponent
notation or fixed notation with its e), then the newline.  A trailing zero
of the digits, or a point with no digit after it, is a NUL byte, and one
``bytes.replace`` removes them all.  Any other row (another layout, or 0,
-0.0, NaN, infinities, subnormals, |x| <= 1e-6, |x| >= 1e17) carries
``%.17g`` in its value columns, and one ``%`` over the block formats it.
"""

from __future__ import annotations

import numpy as np

# rows per block: 4,096-row blocks write a 100,001-row table about a
# quarter faster, but raise its traced peak from 0.36 MB to 0.71 MB
_ROWS = 2048
_POW10 = 10.0 ** np.arange(23)


def _two_product(a, b):
    """Dekker's error-free product: hi + lo == a * b exactly, hi = fl(a * b),
    by Veltkamp splits into 26-bit halves."""
    hi = a * b
    c, d = 134217729.0 * a, 134217729.0 * b
    ah, bh = c - (c - a), d - (d - b)
    al, bl = a - ah, b - bh
    return hi, ((ah * bh - hi) + ah * bl + al * bh) + al * bl


def _digits(a):
    """(e, N) of each value of a float array in (1e-6, 1e17): its decimal
    exponent and its 17 significant digits as an integer, rounded half to
    even from the exact product a * 10**(16 - e)."""
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
    # rounds hi + lo half to even; N stays below 10**17, as no double in
    # range lies within 5e-18 (relative) below a power of ten
    return e, hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def _peel(m, out) -> None:
    """Write the last out.shape[-2] decimal digits of the integer-valued
    floats m (below 2**49, where floor(m * 0.1) is m // 10) into out, most
    significant first; m is overwritten."""
    q = np.empty_like(m)
    for j in range(out.shape[-2] - 1, -1, -1):
        np.floor(np.multiply(m, 0.1, out=q), out=q)
        m -= 10.0 * q
        out[..., j, :] = m
        m, q = q, m


def _render(x, start: int) -> bytes:
    """The rows start.. of the values x, whose indices all have as many
    digits as start."""
    rows, width = len(x), len(str(start))
    a = np.abs(x)
    exact = (a > 1e-6) & (a < 1e17)
    e, n = _digits(np.where(exact, a, 1.0))
    layout = np.signbit(x) * 23 + e + 6
    chosen = int(np.bincount(layout[exact], minlength=46).argmax())
    sign, e0 = chosen // 23, chosen % 23 - 6
    # %g takes exponent notation below e = -4, with one digit before the
    # point; fixed notation has e + 1 digits before it, or for e < 0 none,
    # after "0." and -e - 1 zeros
    head = "-" * sign + ("0." + "0" * (-e0 - 1) if -4 <= e0 < 0 else "")
    point = 1 if e0 < -4 else max(e0 + 1, 0)
    tail = f"e-{-e0:02d}" if e0 < -4 else ""
    dotted = 0 < point < 17
    lead = width + 1 + len(head)
    planes = np.empty((lead + 17 + dotted + len(tail) + 1, rows), np.uint8)
    planes[width:lead] = np.frombuffer(("," + head).encode(), np.uint8)[:, None]
    planes[lead + 17 + dotted:] = np.frombuffer((tail + "\n").encode(), np.uint8)[:, None]
    _peel(np.arange(start, start + rows, dtype=float), planes[:width])
    planes[:width] += 48
    # N = hi 10**9 + lo: the 17 digits are the last 8 of hi and 9 of lo
    hi = n // 10**9
    digits = np.empty((2, 9, rows), np.uint8)
    _peel(np.stack([hi, n - hi * 10**9]).astype(float), digits)
    digits = digits.reshape(18, rows)[1:]
    # zero[j]: the digits from j on are all zeros, which are NULs after the
    # point, and so is the point itself if no digit follows
    zero = digits == 0
    for j in range(15, point - 1, -1):
        zero[j] &= zero[j + 1]
    digits[:point] += 48
    digits[point:] += np.uint8(48) * ~zero[point:]
    planes[lead:lead + point] = digits[:point]
    if dotted:
        planes[lead + point] = np.uint8(46) * ~zero[point]
    planes[lead + point + dotted:lead + 17 + dotted] = digits[point:]
    text, other = planes.T, ~exact | (layout != chosen)
    text[other, width + 1:-1] = 0
    text[other, width + 1:width + 6] = np.frombuffer(b"%.17g", np.uint8)
    return text.tobytes().replace(b"\0", b"") % tuple(x[other].tolist())


def write_values(fh, values) -> None:
    """Write the (n, values[n]) rows of a 1-D float64 array to a text file,
    in blocks of at most _ROWS rows split at each power of ten, so that the
    index width is constant within a block."""
    edges, power = set(range(0, len(values), _ROWS)), 10
    while power < len(values):
        edges.add(power)
        power *= 10
    edges = sorted(edges) + [len(values)]
    for start, end in zip(edges, edges[1:]):
        fh.write(_render(values[start:end], start).decode())
