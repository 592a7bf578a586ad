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
import json
import math
import sys
import typing
from dataclasses import asdict, dataclass, field, fields
from functools import cache, cached_property
from itertools import islice
from pathlib import Path

import numpy as np

from . import abel, counting, dynamics, eigen, orbits, presets, selfmap
from .selfmap import RootFindingError

# field metadata of the counts, which must not be negative
_COUNT = {"nonnegative": True}


@dataclass(frozen=True)
class ExperimentConfig:
    """One run.  `command` is the subcommand and `map` comes from --preset
    or --map-file; every other field is a flag of the same name, with its
    type and default."""

    command: str
    map: dict | None = None
    depth: int = field(default=6, metadata=_COUNT)
    forward_n: int = field(default=12, metadata=_COUNT)
    n_max: int = field(default=10000, metadata=_COUNT)
    samples: int = field(default=1000, metadata=_COUNT)
    seed: int = 0
    out_dir: str = "diskdyn_out"
    format: str = field(default="csv", metadata={"choices": ("json", "csv")})

    @cached_property
    def _built_map(self):
        # set in the instance's __dict__, which a frozen dataclass allows,
        # and not a field, so asdict and the written config leave it out
        return presets.map_from_dict(self.map)

    def resolve_map(self):
        """The map, built once per config."""
        if self.map is None:
            raise ValueError(f"command {self.command!r} needs --preset or --map-file")
        return self._built_map


_FIELD_TYPES = typing.get_type_hints(ExperimentConfig)
_FLAG_FIELDS = [f for f in fields(ExperimentConfig) if f.name not in ("command", "map")]


def _check_field(f, value) -> None:
    if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[f.name]):
        raise ValueError(f"config field {f.name!r} must be {f.type}, got {value!r}")
    choices = f.metadata.get("choices")
    if choices is not None and value not in choices:
        raise ValueError(f"{f.name} must be {' or '.join(choices)}, got {value!r}")
    if f.metadata.get("nonnegative") and value < 0:
        raise ValueError(f"{f.name} must be nonnegative")


def config_from_dict(obj: dict) -> ExperimentConfig:
    if not isinstance(obj, dict):
        raise ValueError("config must be a JSON object")
    declared = {f.name: f for f in fields(ExperimentConfig)}
    unknown = set(obj) - set(declared)
    if unknown:
        raise ValueError(f"unknown config fields: {sorted(unknown)}")
    if "command" not in obj:
        raise ValueError("config needs a 'command' field")
    for name, value in obj.items():
        _check_field(declared[name], value)
    cfg = ExperimentConfig(**obj)
    if cfg.command not in _RUNNERS:
        raise ValueError(f"unknown command {cfg.command!r}")
    if cfg.map is not None:
        cfg.resolve_map()  # validate early; run uses the map built here
    return cfg


# an orbit array is converted _BLOCK points at a time, and a table given as
# rows is formatted a quarter of that at a time, as its rows hold more values
# (orbit.csv has five); a 4,096-row orbit.csv block held 2.3 MB
_BLOCK = 4096


def _fmt(x) -> str:
    if isinstance(x, float):
        return "%.17g" % x
    return str(x)


def _blocks(rows):
    """A table given as an iterable of rows of equal length, as column blocks
    of at most _BLOCK // 4 rows."""
    rows = iter(rows)
    # transposed as taken, so each block's row tuples are freed at once
    while columns := tuple(zip(*islice(rows, _BLOCK // 4), strict=True)):
        yield columns


def _write_csv(path: Path, header, rows) -> None:
    """Every value as _fmt writes it.  A 1-D float64 array stands for its
    (n, values[n]) rows, which floatcsv.write_values renders in numpy as
    byte planes with the same bytes; any other array is refused.  Any
    other table is an iterable of rows, written with one % over a format
    string per block of rows: a column of floats takes %.17g, a column
    without floats %s, and a column that mixes them goes through _fmt."""
    if isinstance(rows, np.ndarray) and (rows.dtype != np.float64 or rows.ndim != 1):
        raise TypeError(f"a table array must be 1-D float64, not {rows.dtype} of shape {rows.shape}")
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        if isinstance(rows, np.ndarray):
            # imported here, as no other table needs it: compiled with cli
            # at import, it raised every job's peak memory by 0.2 to 0.4 MB
            from .floatcsv import write_values

            write_values(fh, rows)
            return
        for columns in _blocks(rows):
            width, height = len(columns), len(columns[0])
            fmts, flat = [], [None] * (width * height)
            for j, col in enumerate(columns):
                floats = {issubclass(t, float) for t in set(map(type, col))}
                if len(floats) > 1:
                    col = list(map(_fmt, col))
                fmts.append("%.17g" if floats == {True} else "%s")
                flat[j::width] = col
            fh.write(((",".join(fmts) + "\n") * height) % tuple(flat))


def _enumerated(values):
    """(n, values[n]) rows of an array as Python floats or complex numbers,
    which format faster than numpy scalars; converted _BLOCK at a time, not
    all at once."""
    for start in range(0, len(values), _BLOCK):
        yield from enumerate(values[start:start + _BLOCK].tolist(), start)


def _cnum(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def _report(rep, *omit: str) -> dict:
    """A report dataclass as JSON fields: complex values as {re, im}, the
    fields named in omit left out."""
    values = {f.name: getattr(rep, f.name) for f in fields(rep) if f.name not in omit}
    return {k: _cnum(v) if isinstance(v, complex) else v for k, v in values.items()}


# ----------------------------------------------------------------------------
# command implementations: each returns (summary dict, {filename: (header, rows)})
# ----------------------------------------------------------------------------


def _run_classify(cfg: ExperimentConfig):
    return _report(dynamics.classify(cfg.resolve_map())), {}


def _run_step(cfg: ExperimentConfig):
    f = cfg.resolve_map()
    rep = dynamics.hyperbolic_step(f, 0.0, n_max=cfg.n_max)
    return _report(rep, "sequence"), {"step_sequence.csv": (("n", "rho"), rep.sequence)}


def _orbit_rows(points):
    """orbit.csv rows (n, re, im, 1 - |z|, pseudo-hyperbolic step from the
    previous point) of an orbit array, produced as they are written."""
    prev = None
    for n, z in _enumerated(points):
        step = float("nan") if prev is None else (
            abs((z - prev) / (1.0 - z.conjugate() * prev))
        )
        yield n, z.real, z.imag, 1.0 - abs(z), step
        prev = z


def _run_orbit(cfg: ExperimentConfig):
    f = cfg.resolve_map()
    points = np.empty(min(cfg.n_max, 100000) + 1, dtype=complex)
    z, prev, count = 0.0 + 0.0j, None, 0
    # a numerically stationary orbit ends the table
    while count < len(points) and z != prev:
        points[count] = prev = z
        count += 1
        z = selfmap.evaluate(f, z)
    points = points[:count]
    summary = {"steps": count - 1, "final": _cnum(complex(points[-1]))}
    return summary, {"orbit.csv": (("n", "re", "im", "one_minus_abs", "rho_step"),
                                   _orbit_rows(points))}


def _run_grand_orbit(cfg: ExperimentConfig):
    f = cfg.resolve_map()
    tr = orbits.grand_orbit(f, 0.0, forward_n=cfg.forward_n,
                            backward_depth=cfg.depth)
    hits = orbits.critical_orbit_intersection(f, tr)
    summary = {
        "nodes": len(tr.points),
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
    # one grand orbit; the shallower rows are its prefixes
    deepest = orbits.grand_orbit(f, 0.0, forward_n=cfg.forward_n,
                                 backward_depth=cfg.depth)
    depths = [*range(2, cfg.depth, 2), cfg.depth]
    rows = []
    prefixes = eigen.prefix_samples(deepest, depths, f, samples)
    for depth, (b, values, kept) in zip(depths, prefixes):
        est = eigen.estimate_tau(b, f, samples, values, kept)
        res = eigen.eigen_residual(b, f, est.tau, samples, values)
        rows.append((depth, len(b.zeros), est.tau.real, est.tau.imag,
                     est.dispersion, res))
    # the summary reports the deepest truncation, the loop's last
    summary = {
        "depth": depth,
        "tau_re": est.tau.real,
        "tau_im": est.tau.imag,
        "residual": res,
        "sample_count": est.sample_count,
        "map_preset": (cfg.map or {}).get("preset", "custom"),
    }
    header = ("depth", "nodes", "tau_re", "tau_im", "dispersion", "residual")
    return summary, {"eigen_depths.csv": (header, rows)}


def _run_abel(cfg: ExperimentConfig):
    f = cfg.resolve_map()
    hm = abel.HalfPlaneMap(f)
    feasible = hm.max_feasible_index(cfg.n_max)
    ns = sorted({max(1, feasible // d) for d in (16, 8, 4, 2, 1)})
    kind = "baker_pommerenke_h" if hm.step == "zero" else "pommerenke_g"
    rows = abel.residual_table(hm, kind, ns, abel.PROBES)
    summary = {
        "step_verdict": hm.step,
        "kind": kind,
        "indices": ns,
        "final_residual": abel.worst_residual(r for n, _, r, _ in rows if n == ns[-1]),
    }
    if hm.step == "positive":
        fit = abel.extract_semiconjugacy(hm, ns[-1], abel.PROBES)
        summary["semiconjugacy"] = _report(fit, "coefficients", "fixed_points")
    header = ("n", "probe_id", "residual", "diff_from_prev")
    return summary, {"abel_residuals.csv": (header, rows)}


def _run_nevanlinna(cfg: ExperimentConfig):
    f = cfg.resolve_map()
    radii = counting.dyadic_radii(math.log2(10.0), math.log2(1000.0),
                                  max(2, cfg.samples // 40))
    rows = counting.scan_rows(f, selfmap.identity_map(), radii)
    ratios = [ratio for _, _, ratio, _ in rows]
    summary = {
        "ratio_min": min(ratios),
        "ratio_max": max(ratios),
        "radii": [radii[0], radii[-1]],
    }
    return summary, {"nevanlinna_scan.csv": (("r", "N", "ratio", "lm_value"), rows)}


def _run_julia_check(cfg: ExperimentConfig):
    f = cfg.resolve_map()
    rep = dynamics.julia_containment_check(f, 1.0, samples=cfg.samples,
                                           seed=cfg.seed)
    return _report(rep, "samples"), {}


def _run_paper_suite(cfg: ExperimentConfig):
    # imported here, so that no other command's start loads the criteria
    from . import acceptance

    results = acceptance.run_all()
    # wall time varies between runs, so it goes to stdout only and the
    # written files stay byte-identical
    rows = [(r.index, r.name, "pass" if r.passed else "FAIL", r.detail)
            for r in results]
    summary = {
        "passed": all(r.passed for r in results),
        "criteria": [_report(r, "elapsed") for r in results],
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


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it
    was, and main is called once per job by long-lived callers."""
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
    for f in _FLAG_FIELDS:
        common.add_argument("--" + f.name.replace("_", "-"), type=_FIELD_TYPES[f.name],
                            default=f.default, choices=f.metadata.get("choices"))

    for name in _RUNNERS:
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
            flags = {f.name: getattr(args, f.name) for f in _FLAG_FIELDS}
            cfg = config_from_dict({"command": args.command,
                                    "map": _map_spec_from_args(args), **flags})
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
