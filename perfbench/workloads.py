"""The four benchmark workloads: how a seed becomes CLI arguments, and how a
job's output is checked.

Only the generated inputs depend on the seed: the rotation angle (and with
it the map file) for `linearizer` and `orbit-trace`, and `alpha` for
`eigen`.  `suite` runs the acceptance criteria, which pin their own seeds.

This module imports nothing from diskdyn, so the parent process stays light;
the checks receive the parsed `summary.json` and the exit code.
"""

from __future__ import annotations

import cmath
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("suite", "linearizer", "eigen", "orbit-trace")

LINEARIZER_N_MAX = 1000
ORBIT_N_MAX = 100000
EIGEN_DEPTH = 8
# below 0.5 tau has not converged to -1 at depth 8
EIGEN_ALPHA_RANGE = (0.5, 0.7)

# The rotated map is conjugate to example62, so its outputs must match the
# unrotated ones up to rounding.  Over 30 seeds the rotation moved them by at
# most 1e-8 relative, so 1e-6 separates rounding from a change in the numerics.
ROTATION_REL_TOL = 1e-6

EXPECTED_CRITERIA = 12


@dataclass(frozen=True)
class Job:
    """One generated workload instance.

    argv is the CLI argument list without --out-dir; reference_argv, when
    set, runs the unrotated example62 job whose summary the check compares
    against; inputs records the seed-derived values.
    """

    workload: str
    argv: tuple[str, ...]
    reference_argv: tuple[str, ...] | None
    inputs: dict


def rotated_example62(angle: float) -> dict:
    """Wire form of e^{it} f(e^{-it} z) for f = example62.

    example62 is gamma = 1 with a double zero at -1/3; rotating moves the zero
    to -e^{it}/3 and, with this package's zero-factor convention
    m_a(z) = -(a/|a|)(z - a)/(1 - conj(a) z), gives gamma = e^{-3it}.
    """
    gamma = cmath.exp(-3j * angle)
    zero = -cmath.exp(1j * angle) / 3.0
    return {"stages": [{"gamma": [gamma.real, gamma.imag],
                        "zeros": [[zero.real, zero.imag, 2]]}]}


def make_job(workload: str, seed: int, work_dir: Path) -> Job:
    """Generate the inputs of `workload` for `seed`, writing any map file
    into work_dir."""
    rng = random.Random(seed)
    if workload == "suite":
        return Job(workload, ("paper-suite",), None, {})
    if workload == "eigen":
        alpha = rng.uniform(*EIGEN_ALPHA_RANGE)
        argv = ("eigen", "--preset", "example61", "--alpha", repr(alpha),
                "--depth", str(EIGEN_DEPTH))
        return Job(workload, argv, None, {"alpha": alpha})
    if workload in ("linearizer", "orbit-trace"):
        angle = rng.uniform(0.0, 2.0 * math.pi)
        map_file = work_dir / "map.json"
        map_file.write_text(json.dumps(rotated_example62(angle)) + "\n")
        if workload == "linearizer":
            cmd, n_max = "abel", LINEARIZER_N_MAX
        else:
            cmd, n_max = "step", ORBIT_N_MAX
        argv = (cmd, "--map-file", str(map_file), "--n-max", str(n_max))
        reference = (cmd, "--preset", "example62", "--n-max", str(n_max))
        return Job(workload, argv, reference, {"angle": angle, "map": str(map_file)})
    raise ValueError(f"unknown workload {workload!r}; known: {list(WORKLOADS)}")


def check(workload: str, exit_code: int, result: dict, reference: dict | None,
          tau_gap: float) -> str | None:
    """Return None when the job's output is correct, else the reason."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    if "error" in result:
        return f"error in summary: {result['error']}"
    if workload == "suite":
        crit = result.get("criteria", [])
        failing = [c["index"] for c in crit if not c["passed"]]
        if len(crit) != EXPECTED_CRITERIA or failing or not result.get("passed"):
            return f"{len(crit)} criteria, failing {failing}"
        return None
    if workload == "eigen":
        gap = abs(complex(result["tau_re"], result["tau_im"]) + 1.0)
        return None if gap < tau_gap else f"|tau + 1| = {gap:.3e} >= tau_gap {tau_gap}"
    if workload == "linearizer":
        verdict, key = result.get("step_verdict"), "final_residual"
    else:
        verdict, key = result.get("verdict"), "limit_estimate"
    if verdict != "zero":
        return f"verdict {verdict!r}, expected 'zero'"
    if reference is None:
        return "the unrotated reference job failed"
    err = abs(result[key] - reference[key]) / abs(reference[key])
    if not err <= ROTATION_REL_TOL:
        return f"{key} {result[key]!r} vs unrotated {reference[key]!r}: rel err {err:.2e}"
    return None
