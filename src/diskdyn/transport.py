"""Transport kernels of half-plane conjugates, generated per stage-degree
sequence: step(w) runs each stage's Horner steps in w, or in 1/w once
|w| > 1, unrolled, and walk inlines that body in the orbit loop.
Coefficients are arguments, never source text (repr loses -0.0 parts).
"""

from functools import cache

_KERNEL = """\
def factory({args}):
    def step(w):
{step}
        return w

    def walk(orbit, count):
        w, append = orbit[-1], orbit.append
        try:
            for _ in range(count):
{walk}
                append(w)
        except Exception as exc:
            return exc

    return step, walk
"""


def _horner(a: list[str], b: list[str], x: str) -> list[str]:
    """Statements w = p(x) / q(x), indented for their branch, for coefficient
    names a and b (low to high) by Horner's rule from the last coefficient
    down; every 16 steps go to a variable, since the parser limits nesting."""
    lines, p, q = [], a[-1], b[-1]
    for i, (ca, cb) in enumerate(zip(a[-2::-1], b[-2::-1]), 1):
        if i % 16 == 0:
            lines += [f"    p = {p}", f"    q = {q}"]
            p, q = "p", "q"
        p, q = f"{ca} + ({p}) * {x}", f"{cb} + ({q}) * {x}"
    return lines + [f"    w = ({p}) / ({q})"]


@cache
def _kernel(degrees: tuple[int, ...] | None):
    """The kernel factory of a stage-degree sequence, compiled once.

    It takes each stage's a_0..a_d, b_0..b_d (low to high) and returns
    (step, walk): walk(orbit, count) appends count points w = step(w) to the
    list and returns the exception that ends it early, if any.  degrees None
    gives the factory of an opaque step, taking the step function itself.
    """
    if degrees is None:
        args, body = ["exact"], ["w = exact(w)"]
    else:
        args, body = [], []
        for s, d in enumerate(degrees):
            a, b = ([f"{c}{s}_{k}" for k in range(d + 1)] for c in "ab")
            args += a + b
            body += ["if abs(w) <= 1.0:", *_horner(a, b, "w"),
                     "else:", "    x = 1.0 / w", *_horner(a[::-1], b[::-1], "x")]
    source = _KERNEL.format(args=", ".join(args), step="\n".join(" " * 8 + ln for ln in body),
                            walk="\n".join(" " * 16 + ln for ln in body))
    exec(compile(source, f"<transport kernel {degrees}>", "exec"), namespace := {})
    return namespace["factory"]
