"""One cold start, timed by run.py: a fresh interpreter imports diskdyn from
src/, parses the job's command line and config, and resolves its map
(presets are built here).  It prints time.monotonic() when done; that clock
is system-wide, so run.py subtracts the time it spawned the process.

    python3 perfbench/setup_probe.py ROOT JOB.json
"""

import json
import sys
import time
from pathlib import Path

root, job_file = Path(sys.argv[1]), Path(sys.argv[2])
sys.path.insert(0, str(root / "src"))

from diskdyn import cli  # noqa: E402

args = cli.build_parser().parse_args(json.loads(job_file.read_text())["argv"])
if args.map_file is not None:
    spec = json.loads(Path(args.map_file).read_text())
elif args.preset is not None:
    spec = {"preset": args.preset}
    if args.alpha is not None:
        spec["alpha"] = args.alpha
else:
    spec = None
cfg = cli.config_from_dict({"command": args.command, "map": spec, "depth": args.depth,
                            "n_max": args.n_max, "out_dir": args.out_dir})
if cfg.map is not None:
    cfg.resolve_map()
print(time.monotonic())
