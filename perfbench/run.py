"""diskdyn benchmark: times CLI jobs end to end, or per layer with tracing.

Run from the root of a diskdyn checkout (the package is imported from src/,
nothing needs installing):

    python3 perfbench/run.py --workload linearizer --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Workloads are listed in workloads.py and BENCHMARK.json.  The seed makes
only the generated inputs (rotation angle and map file, or alpha).  Each run
is a closed loop with one client: a worker process runs one job at a time
until --seconds have passed, checks every job's output, and reports:

  --trace 0   solve_rel    median over warm jobs of the job's wall time divided
                           by that of a fixed calibration computation run just
                           before and after it (the job's wall seconds,
                           solve_s, are printed beside it)
              setup_s      median wall seconds of fresh processes that import
                           diskdyn, parse the job's config and resolve its map,
                           started between jobs across the run
              peak_rss_mb  peak resident memory of the worker process
  --trace 1   per-layer call counts, self times and ratios from a traced
              second half of the run (see spans.py), plus the tracing overhead

Failed jobs (nonzero exit or a failed output check) go into `failed` out of
`attempted`; their ratio is printed as error_rate.  The last line of stdout
is one JSON object with correct, attempted, failed and metrics; the full
record, with every job's time and result digest and the run environment, is
written to .perfbench_run/<workload>/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent

WORKER_TIMEOUT_S = 150
RUN_DIR = ".perfbench_run"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree."""
    if not (root / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=20)
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: int) -> dict:
    work_dir = root / RUN_DIR / name
    work_dir.mkdir(parents=True, exist_ok=True)
    job = workloads.make_job(name, seed, work_dir.relative_to(root))
    job_file = work_dir / "job.json"
    job_file.write_text(json.dumps({
        "workload": job.workload, "argv": job.argv,
        "reference_argv": job.reference_argv, "inputs": job.inputs,
    }, indent=1) + "\n")

    record_file = work_dir / f"result-trace{trace}.json"
    record_file.unlink(missing_ok=True)
    subprocess.run([sys.executable, str(HERE / "worker.py"), "--root", str(root),
                    "--job", str(job_file), "--seconds", str(seconds),
                    "--trace", str(trace), "--record", str(record_file)],
                   cwd=root, check=True, timeout=WORKER_TIMEOUT_S)
    record = json.loads(record_file.read_text())

    jobs = record["jobs"]
    failed = [j for j in jobs if j["error"] is not None]
    digests = sorted({j["digest"] for j in jobs if j["digest"]})
    problems = [f"job {i} ({j['phase']}): {j['error']}" for i, j in enumerate(jobs) if j["error"]]
    if len(digests) != 1:
        problems.append(f"jobs of one config gave {len(digests)} different result digests")
    if not record["environment"]["diskdyn_from_src"]:
        problems.append(f"diskdyn imported from {record['environment']['diskdyn_file']}, not src/")

    if trace:
        layer = record["per_layer"]
        metrics = layer["metrics"]
        if not layer["calls_repeat"]:
            problems.append("per-layer call counts differ between traced jobs")
    else:
        timed = [j for j in jobs if j["phase"] == "timed"]
        record["solve_s"] = statistics.median(j["solve_s"] for j in timed)
        metrics = {
            "solve_rel": (statistics.median(j["solve_rel"] for j in timed), "ratio"),
            "setup_s": (statistics.median(record["setup_samples"]), "s"),
            "peak_rss_mb": (record["peak_rss_mb"], "MB"),
        }
    record.update({
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "inputs": job.inputs, "argv": job.argv,
        "digests": digests, "problems": problems,
    })
    record["environment"].update({"cpu": cpu_model(), "nproc": os.cpu_count(),
                                  "git_sha": git_sha(root)})
    record_file.write_text(json.dumps(record, indent=1) + "\n")
    return {
        "correct": not problems,
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "record": record,
    }


def print_report(res: dict) -> None:
    rec = res["record"]
    n_timed = sum(j["phase"] != "warmup" for j in rec["jobs"])
    print(f"workload {rec['workload']}  seed {rec['seed']}  inputs {rec['inputs']}")
    print(f"  jobs {res['attempted']} (1 warm-up, {n_timed} measured), failed {res['failed']}, "
          f"error_rate {res['failed'] / res['attempted']:.4g}")
    if not rec["trace"]:
        print(f"  solve_s (wall, not bounded)                  {rec['solve_s']:.6g} s")
        print(f"  setup probes {len(rec['setup_samples'])}")
    for name, m in res["metrics"].items():
        print(f"  {name:<44} {m['value']:.6g} {m['unit']}")
    print(f"  result digest {', '.join(rec['digests'])}")
    env = rec["environment"]
    print(f"  environment cpu={env['cpu']!r} nproc={env['nproc']} python={env['python']} "
          f"numpy={env['numpy']} git={env['git_sha']} diskdyn_from_src={env['diskdyn_from_src']}")
    if rec.get("per_layer", {}).get("missing"):
        print(f"  not in diskdyn (read 0): {rec['per_layer']['missing']}")
    for p in rec["problems"]:
        print(f"  PROBLEM {p}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="diskdyn benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "diskdyn" / "__init__.py").is_file():
        print(f"error: {root} is not a diskdyn checkout (no src/diskdyn)", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = run_workload(root, name, args.seed, args.seconds, args.trace)
        print_report(results[name])
    if len(results) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()}
    out = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
