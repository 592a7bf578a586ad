"""Child process of run.py: runs one workload's jobs in a closed loop.

One client, one job at a time.  Each job calls `diskdyn.cli.main(argv)` and
is timed from the call to its return, which includes writing `summary.json`
and the CSV tables, and is bracketed by two runs of a fixed calibration
computation.  After the job the worker checks the output, hashes it, and
measures what it wrote.  A first, untimed warm-up job fills imports and
caches.

With --trace 1 the timed loop is split: untraced jobs first, then the same
jobs with span tracing installed (see spans.py).  The record, written as JSON
to --record, holds every job, the process's peak resident memory, and
either the set-up times of the cold starts it ran between jobs (see
setup_probe.py) or, for traced runs, the per-layer figures.

    python3 perfbench/worker.py --root . --job JOB.json --seconds 10 \
        --trace 0 --record OUT.json
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
from numpy.polynomial import polynomial as npp

import spans
import workloads

HERE = Path(__file__).resolve().parent
MIN_JOBS = 3
MIN_TRACED_JOBS = 2
# cold starts per untraced run, spread evenly over it so that they sample
# the same machine conditions as the jobs
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 20
# about 30 ms on a 2-vCPU Intel Xeon VM
CALIBRATION_STEPS = 20000

# Columns holding wall-clock time, which differs on every run of the same
# job, so they are left out of the result digest.  paper_suite.csv carries
# the per-criterion `elapsed` time inside the result table; moving it out of
# the table needs a change to the package itself.
TIMING_COLUMNS = {"paper_suite.csv": "elapsed"}


def _drop_column(data: bytes, column: str | None) -> bytes:
    """CSV bytes without `column`.

    The CLI writes CSV without quoting, so only the last column may hold
    commas; splitting each line into at most len(header) fields keeps them.
    """
    lines = data.decode().splitlines()
    header = lines[0].split(",")
    if column is None or column not in header:
        return data
    idx = header.index(column)
    kept = []
    for line in lines:
        fields = line.split(",", len(header) - 1)
        del fields[idx]
        kept.append(",".join(fields))
    return ("\n".join(kept) + "\n").encode()


def result_digest(out_dir: Path, result: dict) -> str:
    """sha256 of the summary's `result` block and every CSV table."""
    h = hashlib.sha256(json.dumps(result, sort_keys=True).encode())
    for path in sorted(out_dir.glob("*.csv")):
        h.update(path.name.encode() + b"\0")
        h.update(_drop_column(path.read_bytes(), TIMING_COLUMNS.get(path.name)))
    return h.hexdigest()


def run_cli(cli, argv, out_dir: Path):
    """Run one job; returns (exit code, wall seconds, CPU seconds, summary
    result or None, error)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for old in out_dir.iterdir():
        old.unlink()
    full = list(argv) + ["--out-dir", str(out_dir)]
    error = None
    with contextlib.redirect_stdout(io.StringIO()):
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            code = cli.main(full)
        except Exception:  # a crashing job is a failed job, not a failed run
            code, error = None, traceback.format_exc(limit=3)
        elapsed, cpu = time.perf_counter() - t0, time.process_time() - c0
    summary = out_dir / "summary.json"
    result = json.loads(summary.read_text())["result"] if summary.is_file() else None
    return code, elapsed, cpu, result, error


def calibration_seconds() -> float:
    """Wall seconds of a fixed computation that uses no diskdyn code: scalar
    complex arithmetic in the interpreter plus small numpy calls, the same
    mix the jobs spend their time in.

    The host this benchmark was tuned on is shared, and its speed swings by
    a quarter within minutes; a job's time divided by the mean of the
    calibrations just before and after it cancels most of that swing."""
    coef = np.array([1.0, 0.5, 0.25, 0.125], dtype=complex)
    z, acc = 0.1 + 0.2j, 0.0
    t0 = time.perf_counter()
    for k in range(CALIBRATION_STEPS):
        z = 0.999 * (z + 0.3) / (1.0 + 0.3 * z)
        acc += abs(z)
        if k % 10 == 0:
            acc += abs(npp.polyval(z, coef))
    elapsed = time.perf_counter() - t0
    if not math.isfinite(acc):
        raise ArithmeticError("calibration kernel diverged")
    return elapsed


class JobLoop:
    """Runs, checks and records jobs of one workload."""

    def __init__(self, cli, job: dict, out_dir: Path, reference, tau_gap):
        self.cli = cli
        self.job = job
        self.out_dir = out_dir
        self.reference = reference
        self.tau_gap = tau_gap
        self.records: list[dict] = []

    def run_one(self, phase: str) -> dict:
        calib_before = calibration_seconds()
        code, elapsed, cpu, result, error = run_cli(self.cli, self.job["argv"], self.out_dir)
        calib = (calib_before + calibration_seconds()) / 2
        if error is None:
            error = (workloads.check(self.job["workload"], code, result,
                                     self.reference, self.tau_gap)
                     if result is not None else f"exit code {code}, no summary.json")
        rec = {
            "phase": phase,
            "solve_s": elapsed,
            "cpu_s": cpu,
            "calib_s": calib,
            "solve_rel": elapsed / calib,
            "exit_code": code,
            "error": error,
            "digest": result_digest(self.out_dir, result) if result is not None else None,
            "output_bytes": sum(p.stat().st_size for p in self.out_dir.iterdir()),
        }
        self.records.append(rec)
        return rec

    def loop(self, phase: str, seconds: float, min_jobs: int, after=None) -> None:
        """Run jobs until `seconds` have passed and at least `min_jobs` ran;
        after(elapsed) is called between jobs."""
        t_start = time.perf_counter()
        n = 0
        while n < min_jobs or time.perf_counter() - t_start < seconds:
            self.run_one(phase)
            n += 1
            if after is not None:
                after(time.perf_counter() - t_start)


def setup_seconds(root: Path, job_file: Path) -> float:
    """One cold start: seconds from spawning setup_probe.py to the end of its
    set-up, read on the system-wide monotonic clock the probe prints."""
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(root),
                           str(job_file)], cwd=root, check=True,
                          timeout=PROBE_TIMEOUT_S, capture_output=True, text=True)
    return float(proc.stdout.split()[-1]) - t0


def _median_solve(records, phase):
    return statistics.median(r["solve_s"] for r in records if r["phase"] == phase)


def per_layer(tracer, span_names, records) -> dict:
    """Per-layer figures from the traced jobs: counts from the first traced
    job (they must repeat exactly), self times as medians over traced jobs."""
    stats = [tracer.job_stats(j) for j in range(len(tracer.job_counters))]
    counts = [({k: c for k, (c, _) in s.items()}, cnt)
              for s, cnt in zip(stats, tracer.job_counters)]
    calls, cnt = counts[0]
    out: dict[str, tuple[float, str]] = {}
    for name in span_names:
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_s"] = (statistics.median(s[name][1] for s in stats), "s")
    for name in ("selfmap.preimages.errors", "selfmap.preimages.points",
                 "orbits.grand_orbit.nodes"):
        out[name] = (cnt[name], "count")
    # ratios read 0 when their base is 0 (the layer did not run)
    fiber_points, offered = cnt["orbits.grand_orbit.fiber_points"], cnt["eigen.estimate_tau.offered"]
    out["orbits.grand_orbit.yield"] = (
        cnt["orbits.grand_orbit.nodes"] / fiber_points if fiber_points else 0.0, "ratio")
    out["eigen.estimate_tau.admissible_ratio"] = (
        cnt["eigen.estimate_tau.kept"] / offered if offered else 0.0, "ratio")
    traced = [r for r in records if r["phase"] == "traced"]
    out["cli.output_bytes"] = (traced[0]["output_bytes"], "bytes")
    untraced_s, traced_s = _median_solve(records, "timed"), _median_solve(records, "traced")
    out["trace.untraced_solve_s"] = (untraced_s, "s")
    out["trace.traced_solve_s"] = (traced_s, "s")
    out["trace.overhead_s"] = (traced_s - untraced_s, "s")
    out["trace.spans"] = (tracer.job_bounds[1] - tracer.job_bounds[0], "count")
    return {"metrics": out, "calls_repeat": all(c == counts[0] for c in counts),
            "missing": tracer.missing}


def environment(root: Path, diskdyn) -> dict:
    try:
        installed = importlib.metadata.version("diskdyn")
    except importlib.metadata.PackageNotFoundError:
        installed = None
    src = (root / "src").resolve()
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "diskdyn_file": diskdyn.__file__,
        "diskdyn_from_src": Path(diskdyn.__file__).resolve().is_relative_to(src),
        "diskdyn_installed_version": installed,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", required=True)
    ap.add_argument("--job", required=True, help="job description written by run.py")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--record", required=True)
    args = ap.parse_args(argv)

    root = Path(args.root).resolve()
    sys.path.insert(0, str(root / "src"))
    import diskdyn
    from diskdyn import acceptance, cli

    job_file = Path(args.job)
    job = json.loads(job_file.read_text())
    work_dir = job_file.parent
    record: dict = {"environment": environment(root, diskdyn), "reference": None}

    reference = None
    if job["reference_argv"]:
        code, _, _, reference, error = run_cli(cli, job["reference_argv"], work_dir / "reference")
        record["reference"] = {"exit_code": code, "result": reference, "error": error}
        if code != 0:
            reference = None
    loop = JobLoop(cli, job, work_dir / "out", reference,
                   acceptance.DEFAULT_TOLERANCES["tau_gap"])
    loop.run_one("warmup")
    if args.trace == 0:
        setup: list[float] = []

        def probe_when_due(elapsed: float) -> None:
            while len(setup) < SETUP_PROBES and elapsed >= len(setup) * args.seconds / SETUP_PROBES:
                setup.append(setup_seconds(root, job_file))

        loop.loop("timed", args.seconds, MIN_JOBS, after=probe_when_due)
        probe_when_due(float("inf"))
        record["setup_samples"] = setup
    else:
        loop.loop("timed", args.seconds / 2, MIN_TRACED_JOBS)
        tracer = spans.Tracer()
        tracer.install()
        try:
            loop.loop("traced", args.seconds / 2, MIN_TRACED_JOBS,
                      after=lambda _: tracer.end_job())
        finally:
            tracer.uninstall()
        record["per_layer"] = per_layer(tracer, spans.span_names(), loop.records)
        tracer.save(work_dir / "spans.npz")
    record["jobs"] = loop.records
    # ru_maxrss is in KiB on Linux
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    Path(args.record).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
