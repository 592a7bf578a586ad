"""Half-plane stages in Clark form, and the transport kernels generated from
them per sequence of stage shapes.

A stage s, conjugated by the Cayley map C(z) = (1 + z)/(1 - z) from a
boundary point alpha to beta = s(alpha), is F(w) = C(conj(beta) s(alpha
C^{-1}(w))).  It maps the right half-plane into itself and fixes infinity,
so by Foster's reactance theorem it is

    F(w) = a w + i b + sum_k c_k / (w - i t_k),   a > 0, c_k > 0,

with d - 1 poles for a stage of degree d.  The poles are the Cayley images
of the stage's Clark points, where conj(beta) s(alpha z) = 1 with z != 1,
and the c_k are its Aleksandrov-Clark weights.  Re F(w) is a sum of
positive terms, so rounding cannot carry a step out of the half-plane.

The sum cancels where F is small next to its terms.  Where that happens at
w = 0 (F(0) = 0 for a conjugate-symmetric stage; a zero close to the
circle makes b and a far pole's c / t large and opposite), the stage also
has the form at 0, F(w) = F(0) + w (a - i sum (c_k / t_k) / (w - i t_k)),
taken for |w| below half its nearest pole.

A kernel's walk inlines one such line per stage in the orbit loop; one
step is a walk of one point.  A line writes w for a w where a = 1, which
keeps its bits on every finite w, and c / w for a pole at t = +0.0, which
keeps them on every w (_stage_lines); each sequence of stage shapes, those
folds included, compiles one kernel.  Coefficients are arguments, never
source text (repr loses -0.0 parts), and all of them are complex but the
radius of the form at 0, so each kernel operation is complex with complex.
"""

import math
from fractions import Fraction
from functools import cache

import numpy as np

_KERNEL = """\
def factory({args}):
    def walk(orbit, count):
        w, append = orbit[-1], orbit.append
        try:
            for _ in range(count):
{walk}
                append(w)
        except Exception as exc:
            return exc

    return walk
"""

# pi - math.pi, so that multiples of pi/2 are subtracted to twice the precision
_PI_LO = 1.2246467991473532e-16


def _clark_sums(zeros, alpha: complex) -> tuple[Fraction, Fraction, list[float], list[float]]:
    """(sum m_k x_k, sum m_k x_k y_k, [x_k], [y_k]), the sums exact in
    rationals from the floats, of the stage's zeros in the half-plane, p_k =
    C(conj(alpha) a_k / |alpha|) = x_k + i y_k: sum m_k x_k is the Poisson
    sum of the stage at alpha / |alpha|, its angular derivative there."""
    ar, ai = Fraction(alpha.real), Fraction(alpha.imag)
    # 1 / |alpha| up to (|alpha|^2 - 1)^2, below 1e-31 for a rounded point
    inv = (3 - ar * ar - ai * ai) / 2
    xs, ys, sx, sxy = [], [], Fraction(0), Fraction(0)
    for z, m in zeros:
        zr, zi = Fraction(z.real), Fraction(z.imag)
        u, v = (ar * zr + ai * zi) * inv, (ar * zi - ai * zr) * inv
        n = zr * zr + zi * zi
        den = 1 - 2 * u + n
        x, y = (1 - n) / den, 2 * v / den
        sx += m * x
        sxy += m * x * y
        xs.append(float(x))
        ys.append(float(y))
    return sx, sxy, xs, ys


def _clark_stage(zeros, sums) -> tuple[float, float, list[float], list[float], float]:
    """(a, b, [c_k], [t_k], Im F(0)) of the stage with these (zero,
    multiplicity) pairs, conjugated from alpha / |alpha| to its image, from
    its sums = _clark_sums(zeros, alpha).

    With the zeros p_k of _clark_sums, conj(beta) s(alpha C^{-1}(w)) =
    prod_k ((w - p_k) / (w + conj(p_k)))^m_k, which is 1 at infinity.  So
    a = 1 / sum m_k x_k and b = -a^2 sum m_k x_k y_k, correctly rounded
    from the rational sums.  In floats, translation's b comes out
    -1.0000000000000002 (its step sequence is then not constant), and
    1 - |z|^2 loses the digits of a zero close to the circle; the float
    formulas fail 12 tests, the oracle bounds of tests/test_oracle.py among
    them.
    On w = i t the product is 1 where Psi(t) = sum m_k atan((t - y_k) / x_k)
    is pi (d - 2j) / 2, j = 1..d-1; Psi increases, so each t_j is bracketed
    and refined by Newton, and c_j = 1 / Psi'(t_j).  At w = 0 the product is
    exp(i (pi d - 2 Psi(0))), so F(0) = i cot(pi d / 2 - Psi(0)).
    """
    sx, sxy, xs, ys = sums
    ms = [m for _, m in zeros]
    a = 1 / sx
    b = float(-a * a * sxy)
    # of the two doubles within an ulp of a, a power of two is taken over the
    # nearer: multiplying by it is exact, so orbits of nearby points keep
    # their ratio (example61(0.6): a = 1.99999999999999986..., taken as 2)
    two = 2.0 ** round(math.log2(a))
    a = two if abs(a - Fraction(two)) < math.ulp(float(a)) else float(a)
    d = sum(ms)
    if d == 1:
        return a, b, [], [], b
    x, y, m = np.array(xs), np.array(ys), np.array(ms, dtype=float)
    half = 0.5 * (d - 2 * np.arange(1, d))
    # above every edge each atan term is at least pi half / d, so Psi(t) is
    # at least its target, and below every edge at most: [lo, hi] brackets t
    edge = y + x * np.tan(math.pi * half / d)[:, None]
    lo, hi = edge.min(axis=1), edge.max(axis=1)
    t = 0.5 * (lo + hi)
    for _ in range(200):
        s = t[:, None] - y
        turns, r = _psi(s, x, m)
        r = r + (turns / 2 - half) * math.pi + (turns / 2 - half) * _PI_LO
        lo, hi = np.where(r < 0, t, lo), np.where(r > 0, t, hi)
        step = t - r / (m * x / (x * x + s * s)).sum(axis=1)
        step = np.where((step > lo) & (step < hi), step, 0.5 * (lo + hi))
        if (step == t).all():
            break
        t = step
    s = t[:, None] - y
    c = 1.0 / (m * x / (x * x + s * s)).sum(axis=1)
    # F(0) = i cot(pi d / 2 - Psi(0)), from the counted quarter turns and
    # the small remainder of Psi(0)
    turns, r = _psi(-y[None, :], x, m)
    f0 = math.tan(r[0]) if (d - turns[0]) % 2 else -math.inf if r[0] == 0 else -1.0 / math.tan(r[0])
    return a, b, c.tolist(), t.tolist(), f0


def _psi(s, x, m):
    """(quarter turns, remainder) of Psi = sum m atan(s / x) along the last
    axis: atan(s / x) = sign(s) pi / 2 - atan(x / s) where |s| > x, and the
    pi / 2 are counted, not rounded, so that a zero close to the circle (x
    small, y large) does not cost the remainder its digits."""
    big = abs(s) > x
    small = np.where(big, -np.arctan(x / np.where(big, s, 1.0)), np.arctan(s / x))
    return (m * np.sign(s) * big).sum(axis=-1), (m * small).sum(axis=-1)


def _stage_arguments(a: float, b: float, c: list[float], t: list[float], f0: float):
    """(shape, arguments) of a stage from _clark_stage.

    The sum form cancels where F is small next to its terms, and two cases
    come up at w = 0.  Poles i t and -i t of equal weight c are paired, as
    2c / (w + t^2 / w): the two terms c / (w -+ i t) are each about c / t
    near w = 0 and cancel, where the pair has no cancellation.  A conjugate-
    symmetric stage (such as a product of real zeros at omega = 1) has all
    its poles in such pairs or at 0, b = 0 and, without a pole at 0,
    F(0) = 0.  Otherwise, near w = 0 and with the other poles away from 0,
    F(w) = i f0 + w (a - i sum (c_k / t_k) / (w - i t_k)) keeps its digits:
    f0 = Im F(0) comes from the zeros, not from b + sum c_k / t_k, and its
    terms are at most |w| c_k / (|t_k| |w - i t_k|).  A stage whose F(0) is
    below 1/16 of |b| + sum c_k / |t_k| (a zero close to the circle makes b
    and a far pole's c / t large and opposite) takes that form for |w|
    below half its nearest pole, and the sum form elsewhere.

    shape = (scale, pairs, other poles, zero, form at 0), scale 0 where the
    sum form drops a = 1 (_stage_lines) and 1 elsewhere, zero the index
    among the other poles of the one at t = +0.0, whose line drops its i t,
    and -1 where there is none (a pole at -0.0 keeps its i t, and the form
    at 0 has no pole at 0); the arguments are a (unless dropped, but the
    form at 0 keeps it), i b, 2c and t^2 of each pair, c_k and i t_k (but
    the dropped one) of the other poles, then for the form at 0 half the
    nearest pole, i f0 and -i c_k / t_k.  All are complex but the radius,
    which only abs(w) < r reads: a real coefficient x is passed as
    complex(x, 0.0), the value Python 3.10 to 3.13 promote it to, so every
    kernel operation is complex with complex (no float.__mul__ tried first)
    and keeps its bits where 3.14 stops promoting.
    """
    pairs, waiting = [], {}
    for ck, tk in zip(c, t):
        if tk and waiting.pop((-tk, ck), False):
            pairs.append((2.0 * ck, tk * tk))
        else:
            waiting[tk, ck] = True
    single = [(ck, tk) for tk, ck in waiting]
    origin = int(bool(single) and all(tk for _, tk in single) and abs(f0) < (abs(b) + sum(
        ck / abs(tk) for ck, tk in single)) / 16)
    scale = int(a != 1.0)
    zero = next((k for k, (_, tk) in enumerate(single)
                 if tk == 0.0 and math.copysign(1.0, tk) > 0), -1)
    args = [complex(a, 0.0)] if scale or origin else []
    args.append(complex(0.0, b))
    for pk, qk in pairs:
        args += [complex(pk, 0.0), complex(qk, 0.0)]
    for k, (ck, tk) in enumerate(single):
        args += [complex(ck, 0.0)] + [complex(0.0, tk)] * (k != zero)
    if origin:
        args += [min(abs(tk) for _, tk in single) / 2, complex(0.0, f0)]
        args += [complex(0.0, -ck / tk) for ck, tk in single]
    return (scale, len(pairs), len(single), zero, origin), args


def _sum(name: str, terms: list[str]) -> list[str]:
    """Statements name = the sum of terms, 16 terms to a statement, since
    the compiler limits nesting."""
    return [f"{name} = {' + '.join(terms[:16])}"] + [
        f"{name} = {name} + {' + '.join(terms[i:i + 16])}" for i in range(16, len(terms), 16)]


def _stage_lines(s: int, scale: int, pairs: int, single: int, zero: int, origin: int) -> list[str]:
    """The statements of stage s: w = a w + i b + sum p_k / (w + q_k / w) +
    sum c_k / (w - i t_k), and with the form at 0, w = i f0 + w (a + sum
    e_k / (w - i t_k)) + sum p_k / (w + q_k / w) where |w| < r.

    The sum form writes w for a w where a = 1, and c / w for c / (w - i t)
    where t = +0.0, so example62's line at omega = 1 is w = w + i b + c / w
    (tests/test_transport.py checks both folds against the unfolded line).
    w - i t subtracts 0.0 from each part of w, which gives w's bits on every
    w.  At t = -0.0 it adds 0.0 to Im w instead, which turns an Im w = -0.0
    into +0.0: not w, so that pole keeps its i t.  i b stays where b = 0,
    since adding it turns -0.0 parts into +0.0 too (without it, w with
    Re w <= -0.0 can round otherwise).  On every w with finite parts, w
    gives the bits of 1 w: 1 w is w but for an Im w = -0.0, which it makes
    +0.0, and so does adding i b, whose real part is +0.0.  Where a part of
    w is infinite or NaN, 1 w can have a NaN part that w has not (0 inf is
    NaN), and only there may the folded line differ.  So a kernel keeps its
    bits on every finite w whose unfolded value is finite: a stage that met
    an infinite part would have left a NaN in the unfolded value."""
    paired = [f"p{s}_{k} / (w + q{s}_{k} / w)" for k in range(pairs)]
    terms = [f"a{s} * w" if scale else "w", f"b{s}"] + paired + [
        f"c{s}_{k} / w" if k == zero else f"c{s}_{k} / (w - t{s}_{k})"
        for k in range(single)]
    lines = [f"w = {' + '.join(terms)}"] if len(terms) <= 16 else _sum("v", terms) + ["w = v"]
    if not origin:
        return lines
    near = _sum("g", [f"a{s}"] + [f"e{s}_{k} / (w - t{s}_{k})" for k in range(single)])
    near += _sum("v", [f"f{s}", "w * g"] + paired) + ["w = v"]
    return [f"if abs(w) < r{s}:", *("    " + ln for ln in near), "else:", *("    " + ln for ln in lines)]


def _stage_names(s: int, scale: int, pairs: int, single: int, zero: int, origin: int) -> list[str]:
    names = [f"a{s}"] * (scale or origin) + [f"b{s}"]
    for k in range(pairs):
        names += [f"p{s}_{k}", f"q{s}_{k}"]
    for k in range(single):
        names += [f"c{s}_{k}"] + [f"t{s}_{k}"] * (k != zero)
    if origin:
        names += [f"r{s}", f"f{s}", *(f"e{s}_{k}" for k in range(single))]
    return names


@cache
def _kernel(shapes: tuple[tuple[int, int, int, int, int], ...]):
    """The kernel factory of a sequence of stage shapes (scale, pairs,
    other poles, zero, form at 0), compiled once.

    It takes each stage's _stage_arguments and returns walk:
    walk(orbit, count) appends count points, each the stages' lines run on
    the last, to the list and returns the exception that ends it early, if
    any.
    """
    args, body = [], []
    for s, shape in enumerate(shapes):
        args += _stage_names(s, *shape)
        body += _stage_lines(s, *shape)
    source = _KERNEL.format(args=", ".join(args), walk="\n".join(" " * 16 + ln for ln in body))
    exec(compile(source, f"<transport kernel {shapes}>", "exec"), namespace := {})
    return namespace["factory"]
