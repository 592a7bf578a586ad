"""Deterministic experiment runner.

Every invocation resolves to an ExperimentConfig, runs one operation, and
writes a JSON summary (plus CSV tables when the format is csv) under the
output directory.  The resolved config is embedded in the summary, so any
run can be reproduced with `diskdyn run --config <file>` on that block.

Exit codes: 0 success, 1 failed suite criteria, 2 validation error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

from . import abel, acceptance, counting, dynamics, eigen, orbits, presets, selfmap
from .selfmap import RootFindingError

COMMANDS = (
    "classify",
    "step",
    "orbit",
    "grand-orbit",
    "eigen",
    "abel",
    "nevanlinna",
    "julia-check",
    "paper-suite",
)

_CONFIG_FIELDS = {
    "command", "map", "depth", "forward_n", "n_max", "samples",
    "seed", "tol", "out_dir", "format",
}


@dataclass(frozen=True)
class ExperimentConfig:
    command: str
    map: dict | None = None
    depth: int = 6
    forward_n: int = 12
    n_max: int = 10000
    samples: int = 1000
    seed: int = 0
    tol: float = 1e-9
    out_dir: str = "diskdyn_out"
    format: str = "csv"

    def resolve_map(self):
        if self.map is None:
            raise ValueError(f"command {self.command!r} needs --preset or --map-file")
        return presets.map_from_dict(self.map)


def config_from_dict(obj: dict) -> ExperimentConfig:
    if not isinstance(obj, dict):
        raise ValueError("config must be a JSON object")
    unknown = set(obj) - _CONFIG_FIELDS
    if unknown:
        raise ValueError(f"unknown config fields: {sorted(unknown)}")
    if "command" not in obj:
        raise ValueError("config needs a 'command' field")
    cfg = ExperimentConfig(**obj)
    if cfg.command not in COMMANDS:
        raise ValueError(f"unknown command {cfg.command!r}")
    if cfg.format not in ("json", "csv"):
        raise ValueError(f"format must be json or csv, got {cfg.format!r}")
    for name in ("depth", "forward_n", "n_max", "samples"):
        if int(getattr(cfg, name)) < 0:
            raise ValueError(f"{name} must be nonnegative")
    if cfg.map is not None:
        presets.map_from_dict(cfg.map)  # validate early
    return cfg


def _fmt(x) -> str:
    if isinstance(x, float):
        return "%.17g" % x
    return str(x)


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _cnum(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


# ----------------------------------------------------------------------------
# command implementations: each returns (summary dict, {filename: (header, rows)})
# ----------------------------------------------------------------------------


def _run_classify(cfg: ExperimentConfig):
    f = cfg.resolve_map()
    cls = dynamics.denjoy_wolff(f, tol=cfg.tol, n_max=cfg.n_max)
    summary = {
        "kind": cls.kind,
        "dw_point": _cnum(cls.dw_point),
        "angular_derivative": cls.angular_derivative,
        "interior_derivative": _cnum(cls.interior_derivative)
        if cls.interior_derivative is not None else None,
        "residual": cls.residual,
    }
    return summary, {}


def _run_step(cfg: ExperimentConfig):
    f = cfg.resolve_map()
    rep = dynamics.hyperbolic_step(f, 0.0, n_max=cfg.n_max)
    summary = {
        "verdict": rep.verdict,
        "limit_estimate": rep.limit_estimate,
        "base_point": _cnum(rep.base_point),
        "frozen_at": rep.frozen_at,
        "approach_angle": rep.approach_angle,
    }
    rows = [(n, rep.sequence[n]) for n in range(len(rep.sequence))]
    return summary, {"step_sequence.csv": (("n", "rho"), rows)}


def _run_orbit(cfg: ExperimentConfig):
    f = cfg.resolve_map()
    n_steps = min(cfg.n_max, 100000)
    z = 0.0 + 0.0j
    rows = []
    prev = None
    for n in range(n_steps + 1):
        if prev is not None and z == prev:
            break  # orbit numerically stationary; stop the table here
        step = float("nan") if prev is None else (
            abs((z - prev) / (1.0 - z.conjugate() * prev))
        )
        rows.append((n, z.real, z.imag, 1.0 - abs(z), step))
        prev = z
        z = selfmap.evaluate(f, z)
    summary = {"steps": len(rows) - 1, "final": _cnum(prev)}
    return summary, {"orbit.csv": (("n", "re", "im", "one_minus_abs", "rho_step"), rows)}


def _run_grand_orbit(cfg: ExperimentConfig):
    f = cfg.resolve_map()
    tr = orbits.grand_orbit(f, 0.0, forward_n=cfg.forward_n,
                            backward_depth=cfg.depth)
    hits = orbits.critical_orbit_intersection(f, tr)
    summary = {
        "nodes": len(tr.nodes),
        "truncated": tr.truncated,
        "blaschke_sum": orbits.blaschke_sum(tr),
        "blaschke_partial_sums": list(tr.blaschke_partial_sums),
        "conjugation_closed": orbits.conjugation_closure_check(tr),
        "critical_hits": [_cnum(n.point) for n, _ in hits],
    }
    header = ("re", "im", "multiplicity", "forward_index", "backward_depth",
              "one_minus_abs")
    return summary, {"grand_orbit.csv": (header, orbits.truncation_rows(tr))}


def _run_eigen(cfg: ExperimentConfig):
    f = cfg.resolve_map()
    samples = eigen.ring_samples(0.4, 16)
    depths = list(range(2, cfg.depth + 1, 2)) or [cfg.depth]
    rows = []
    final = None
    for depth in depths:
        tr = orbits.grand_orbit(f, 0.0, forward_n=cfg.forward_n,
                                backward_depth=depth)
        b = eigen.build_truncated_eigenfunction(tr)
        est = eigen.estimate_tau(b, f, samples)
        res = eigen.eigen_residual(b, f, est.tau, samples)
        rows.append((depth, len(tr.nodes), est.tau.real, est.tau.imag,
                     est.dispersion, res))
        final = (depth, est, res)
    depth, est, res = final
    preset_name = (cfg.map or {}).get("preset", "custom")
    summary = eigen.eigen_report(depth, est.tau, res, est.sample_count, preset_name)
    header = ("depth", "nodes", "tau_re", "tau_im", "dispersion", "residual")
    return summary, {"eigen_depths.csv": (header, rows)}


def _run_abel(cfg: ExperimentConfig):
    f = cfg.resolve_map()
    hm = abel.HalfPlaneMap(f)
    probes = [1.0 + 0.5 * cmath.exp(2j * math.pi * k / 10) for k in range(10)]
    feasible = hm.max_feasible_index(cfg.n_max)
    ns = sorted({max(1, feasible // d) for d in (16, 8, 4, 2, 1)})
    verdict = hm.step_verdict()
    kind = "baker_pommerenke_h" if verdict == "zero" else "pommerenke_g"
    rows = abel.residual_table(hm, kind, ns, probes)
    summary = {
        "step_verdict": verdict,
        "kind": kind,
        "indices": ns,
        "final_residual": max(r for n, _, r, _ in rows if n == ns[-1]),
    }
    if verdict == "positive":
        fit = abel.extract_semiconjugacy(hm, ns[-1], probes)
        summary["semiconjugacy"] = {
            "parabolic": fit.parabolic,
            "residual": fit.residual,
            "multiplier": _cnum(fit.multiplier) if fit.multiplier is not None else None,
        }
    header = ("n", "probe_id", "residual", "diff_from_prev")
    return summary, {"abel_residuals.csv": (header, rows)}


def _run_nevanlinna(cfg: ExperimentConfig):
    f = cfg.resolve_map()
    ident = selfmap.identity_map()
    radii = counting.dyadic_radii(math.log2(10.0), math.log2(1000.0),
                                  max(2, cfg.samples // 40))
    rows = counting.scan_rows(f, ident, radii)
    scan = counting.inner_comparability_scan(f, radii)
    summary = {
        "ratio_min": scan.ratio_min,
        "ratio_max": scan.ratio_max,
        "radii": [radii[0], radii[-1]],
    }
    return summary, {"nevanlinna_scan.csv": (("r", "N", "ratio", "lm_value"), rows)}


def _run_julia_check(cfg: ExperimentConfig):
    f = cfg.resolve_map()
    rep = dynamics.julia_containment_check(f, 1.0, samples=cfg.samples,
                                           seed=cfg.seed)
    summary = {
        "contact": _cnum(rep.contact),
        "level": rep.level,
        "derivative": rep.derivative,
        "bound": rep.bound,
        "max_quotient": rep.max_quotient,
        "max_ratio": rep.max_ratio,
        "worst_point": _cnum(rep.worst_point),
        "passed": rep.passed,
    }
    return summary, {}


def _run_paper_suite(cfg: ExperimentConfig):
    results = acceptance.run_all()
    # wall time varies between runs, so it goes to stdout only and the
    # written files stay byte-identical
    rows = [(r.index, r.name, "pass" if r.passed else "FAIL", r.detail)
            for r in results]
    summary = {
        "passed": all(r.passed for r in results),
        "criteria": [
            {"index": r.index, "name": r.name, "passed": r.passed,
             "detail": r.detail}
            for r in results
        ],
    }
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        print(f"[{mark}] criterion {r.index:2d}: {r.name} ({r.elapsed:.2f} s)")
        if not r.passed:
            print(f"       {r.detail}")
    header = ("index", "name", "status", "detail")
    return summary, {"paper_suite.csv": (header, rows)}


_RUNNERS = {
    "classify": _run_classify,
    "step": _run_step,
    "orbit": _run_orbit,
    "grand-orbit": _run_grand_orbit,
    "eigen": _run_eigen,
    "abel": _run_abel,
    "nevanlinna": _run_nevanlinna,
    "julia-check": _run_julia_check,
    "paper-suite": _run_paper_suite,
}


def run(cfg: ExperimentConfig) -> int:
    """Execute a config; returns the process exit code."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        summary, tables = _RUNNERS[cfg.command](cfg)
    except (ValueError,) as exc:
        _write_summary(out, cfg, {"error": str(exc), "error_class": "validation"})
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RootFindingError, dynamics.ClassificationError, ArithmeticError) as exc:
        _write_summary(out, cfg, {"error": str(exc), "error_class": "numerical"})
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3

    _write_summary(out, cfg, summary)
    if cfg.format == "csv":
        for name, (header, rows) in tables.items():
            _write_csv(out / name, header, rows)
    if cfg.command == "paper-suite" and not summary["passed"]:
        failing = [c["index"] for c in summary["criteria"] if not c["passed"]]
        print(f"failed criteria: {failing}", file=sys.stderr)
        return 1
    print(json.dumps(summary, sort_keys=True, indent=2))
    return 0


def _write_summary(out: Path, cfg: ExperimentConfig, summary: dict) -> None:
    payload = {"config": asdict(cfg), "result": summary}
    with open(out / "summary.json", "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diskdyn",
        description="experiments on holomorphic self-maps of the unit disk",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--preset", choices=sorted(presets.PRESETS),
                        help="named map preset")
    common.add_argument("--alpha", type=float, default=None,
                        help="parameter for the example61 preset")
    common.add_argument("--map-file", type=str, default=None,
                        help="JSON map description file")
    common.add_argument("--depth", type=int, default=6)
    common.add_argument("--forward-n", type=int, default=12)
    common.add_argument("--n-max", type=int, default=10000)
    common.add_argument("--samples", type=int, default=1000)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--tol", type=float, default=1e-9)
    common.add_argument("--out-dir", type=str, default="diskdyn_out")
    common.add_argument("--format", choices=("json", "csv"), default="csv")

    for name in COMMANDS:
        sub.add_parser(name, parents=[common])

    runp = sub.add_parser("run")
    runp.add_argument("--config", type=str, required=True,
                      help="JSON config produced by a previous run")
    return parser


def _map_spec_from_args(args) -> dict | None:
    if args.map_file is not None:
        if args.preset is not None:
            raise ValueError("give either --preset or --map-file, not both")
        with open(args.map_file) as fh:
            return json.load(fh)
    if args.preset is not None:
        spec = {"preset": args.preset}
        if args.alpha is not None:
            spec["alpha"] = args.alpha
        return spec
    return None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            with open(args.config) as fh:
                cfg = config_from_dict(json.load(fh))
        else:
            cfg = config_from_dict({
                "command": args.command,
                "map": _map_spec_from_args(args),
                "depth": args.depth,
                "forward_n": args.forward_n,
                "n_max": args.n_max,
                "samples": args.samples,
                "seed": args.seed,
                "tol": args.tol,
                "out_dir": args.out_dir,
                "format": args.format,
            })
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
