"""Named self-maps used throughout the tests and the CLI, plus the JSON
wire format for map descriptions.

Wire format: {"preset": name, ...params} or {"stages": [stage, ...]} where a
stage is {"gamma": [re, im], "zeros": [[re, im, mult], ...]}.  Unknown fields
are rejected so committed experiment fixtures stay unambiguous.
"""

from __future__ import annotations

import numbers

import numpy as np

from .geometry import cayley_from_rhp, cayley_to_rhp
from .selfmap import CompositeMap, FiniteBlaschkeProduct, _stages


def example61(alpha: float = 0.5) -> FiniteBlaschkeProduct:
    """The member family ((z + alpha)/(1 + alpha z))^2 for 0 < alpha < 1: a
    degree-2 self-map with attracting boundary point 1.

    Hyperbolic for alpha > 1/3, with positive step and boundary derivative
    2(1 - alpha)/(1 + alpha); parabolic at alpha = 1/3.  The inner Mobius
    factor is exactly the zero factor at -alpha, so gamma = 1 reproduces the
    rational form.
    """
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    return FiniteBlaschkeProduct(1.0, ((-alpha, 2),))


def example62() -> FiniteBlaschkeProduct:
    """The parabolic zero-step member: alpha = 1/3."""
    return example61(1.0 / 3.0)


def _translation_apply_disk(z: complex) -> complex:
    return cayley_from_rhp(cayley_to_rhp(z) - 1j)


def translation() -> FiniteBlaschkeProduct:
    """Parabolic disk automorphism conjugate to the vertical half-plane
    translation w -> w - i, whose Clark form has no poles.

    The downward direction is the one whose canonical linearizer h(w) = i w
    has image in the upper half-plane, so exp(i theta h) is bounded.
    """
    # zero of the transported map: f(a) = 0 iff C(a) - i = C(0) = 1
    a = cayley_from_rhp(1.0 + 1.0j)
    gamma = _translation_apply_disk(0.0) * abs(a) / (a * a)
    gamma /= abs(gamma)
    return FiniteBlaschkeProduct(gamma, ((a, 1),))


def power_map(n: int = 2) -> FiniteBlaschkeProduct:
    """z -> z^n: an elliptic map fixing the origin."""
    if n < 1:
        raise ValueError("power must be >= 1")
    return FiniteBlaschkeProduct(1.0, ((0.0, n),))


PRESETS = {
    "example61": example61,
    "example62": example62,
    "translation": translation,
    "power2": power_map,
}


def from_preset(name: str, alpha: float | None = None):
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; known: {sorted(PRESETS)}")
    if name == "example61":
        # example61 takes float(alpha), which would read "0.6" or True
        if alpha is not None and (isinstance(alpha, bool) or not isinstance(alpha, numbers.Real)):
            raise ValueError(f"alpha must be a real number, got {alpha!r}")
        return example61(0.5 if alpha is None else alpha)
    if alpha is not None:
        raise ValueError(f"preset {name!r} takes no alpha parameter")
    return PRESETS[name]()


# ----------------------------------------------------------------------------
# wire format
# ----------------------------------------------------------------------------


def _check_fields(obj: dict, allowed: set[str], where: str) -> None:
    extra = set(obj) - allowed
    if extra:
        raise ValueError(f"unknown fields {sorted(extra)} in {where}")


def _stage_from_dict(obj: dict) -> FiniteBlaschkeProduct:
    _check_fields(obj, {"gamma", "zeros"}, "map stage")
    try:
        gre, gim = obj["gamma"]
        gamma = complex(gre, gim)
        # FiniteBlaschkeProduct refuses a multiplicity that is not integral
        zeros = [(complex(zr, zi), m) for zr, zi, m in obj["zeros"]]
        # complex() and int() read a bool (JSON true or false) as 1 or 0
        numbers = [gre, gim, *(x for zero in obj["zeros"] for x in zero)]
        if any(isinstance(x, (bool, np.bool_)) for x in numbers):
            raise TypeError("a bool in a numeric slot")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed map stage {obj!r}") from exc
    return FiniteBlaschkeProduct(gamma, zeros)


def map_from_dict(obj: dict):
    """Build a map from its wire description (preset reference or stage list)."""
    if not isinstance(obj, dict):
        raise ValueError(f"map description must be an object, got {obj!r}")
    if "preset" in obj:
        _check_fields(obj, {"preset", "alpha"}, "map description")
        return from_preset(obj["preset"], obj.get("alpha"))
    _check_fields(obj, {"stages"}, "map description")
    stages = obj.get("stages")
    if not isinstance(stages, list) or not stages:
        raise ValueError("map description needs a nonempty 'stages' list")
    built = [_stage_from_dict(s) for s in stages]
    if len(built) == 1:
        return built[0]
    return CompositeMap(tuple(built))


def map_to_dict(f) -> dict:
    """Serialize a map to its wire description."""
    return {
        "stages": [
            {
                "gamma": [s.gamma.real, s.gamma.imag],
                "zeros": [[a.real, a.imag, m] for a, m in s.zeros],
            }
            for s in _stages(f)
        ]
    }
