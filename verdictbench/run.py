"""The verdict benchmark: ``jt`` requests run in process, closed loop.

    python3 verdictbench/run.py --workload jt-corpus --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Each workload runs in a process of its
own (``worker.py``).  With ``--trace 0`` it prints the end-to-end metrics;
``setup_s`` is the median of SETUPS set-ups, each in a fresh process.
With ``--trace 1`` it prints the per-layer metrics of a traced loop.
The last line of standard output is one JSON object; the lines before
it list every metric with its unit.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import inputs  # noqa: E402

SETUPS = 7          # fresh-process set-ups per untraced run
DEADLINE_S = 170    # the whole run, all processes included


def worker(args, deadline):
    """Run worker.py to completion and return its JSON result."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    left = deadline - time.monotonic()
    if left <= 0:
        raise SystemExit("out of time before starting a worker")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=left)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"worker did not finish within {DEADLINE_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"worker failed with exit code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None):
    p = argparse.ArgumentParser(description="judgekit verdict benchmark")
    p.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "judgekit", "cli.py")):
        raise SystemExit(f"no judgekit sources under {os.path.join(ROOT, 'src')}")

    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", ns.workload, "--seed", str(ns.seed),
              "--seconds", str(ns.seconds), "--trace", str(ns.trace)]
    setups = []
    if not ns.trace:
        setups = [worker(common + ["--setup-only"], deadline)["setup_s"]
                  for _ in range(SETUPS - 1)]
    res = worker(common, deadline)
    metrics = res["metrics"]
    if not ns.trace:
        metrics["setup_s"] = (statistics.median(setups + [res["setup_s"]]), "s")

    info = res["info"]
    print(f"workload {ns.workload}, seed {ns.seed}: {res['attempted']} requests, "
          f"{res['failed']} wrong ({res['known_defects']} on known defects)")
    if ns.trace:
        print(f"traced {info['cycles']} cycle(s), {info['spans']} spans; "
              f"per-layer values are per cycle")
    else:
        print(f"verdict_s.tail is p{info['tail_percentile']:.1f} of "
              f"{info['samples']} samples; the median raw sample is "
              f"{info['raw_p50']:.6g} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:14.6g} {unit}")
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"],
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
