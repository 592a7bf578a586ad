"""A stand-in for a transport kernel, shared by the tests of its callers."""


def opaque_kernel(step):
    """The walk of an opaque step, with the transport kernel's contract:
    walk(orbit, count) appends count points w = step(w) and returns the
    exception that ends it early, if any."""
    def walk(orbit, count):
        w, append = orbit[-1], orbit.append
        try:
            for _ in range(count):
                w = step(w)
                append(w)
        except Exception as exc:
            return exc

    return walk
