"""One workload in one process: guards, set-up, and the closed loop.

Run by ``run.py``; prints one JSON object as its last line.  The process
limits its own address space and caps each request's wall time, so an
exploding request fails that request rather than the run.

The loop is closed with a single client: the next request is sent only
after the previous report has been emitted.  It runs as many seeded
cycles of ``inputs.py`` as ``--seconds`` holds at the nominal cycle time
(``inputs.cycles``), so every run of the same length measures the same
requests, however fast the code or the machine is.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import signal
import sys
import tempfile
import time

import inputs
import verdicts
from verdicts import Outcome

MEMORY_CEILING = 1536 << 20   # bytes of address space for the whole process
REQUEST_CAP_S = 15.0           # the largest chosen request takes about 5 s

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)   # the checkout holding src/judgekit


class RequestCapped(BaseException):
    """Raised by the alarm; a BaseException so that no handler inside
    the checker swallows it."""


def _on_alarm(signum, frame):
    raise RequestCapped()


def limit_memory():
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = MEMORY_CEILING if hard == resource.RLIM_INFINITY else min(MEMORY_CEILING, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))


def run_request(cli, argv):
    """Run one ``jt`` request in process with stdout captured."""
    buf = io.StringIO()
    code, error = None, ""
    signal.setitimer(signal.ITIMER_REAL, REQUEST_CAP_S)
    start = time.perf_counter()
    try:
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
        finally:
            seconds = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
    except RequestCapped:
        error = f"hit the {REQUEST_CAP_S:g} s request cap"
    except MemoryError:
        error = "hit the memory ceiling"
    except SystemExit as e:
        code = e.code
    except Exception as e:
        error = f"raised {type(e).__name__}: {e}"
    return Outcome(seconds, code, buf.getvalue(), error)


def run_loop(cli, wl, seed, where, cycles, tracer=None):
    """Exactly ``cycles`` cycles of requests.  Returns
    ``(cycle, request, outcome, right)`` records."""
    records = []
    for cycle in range(cycles):
        for req in inputs.sequence(wl, seed, cycle):
            gc.collect()
            if tracer:
                tracer.start_request()
            out = run_request(cli, inputs.argv_in(req, where))
            fails = tuple(f.format(doc=os.path.join(where, req.doc)) for f in req.fail_checks)
            records.append((cycle, req, out, verdicts.is_right(out, req.expect, fails)))
    return records


def unexpected(records):
    """Wrong verdicts on inputs that are not known defects of today's
    checker, with what went wrong."""
    bad = []
    for _, req, out, right in records:
        if not right and not req.defect:
            code, status, _ = verdicts.verdict(out)
            bad.append(f"{' '.join(req.argv)}: expected {req.expect}, got exit {code}, "
                       f"status {status}{', ' + out.error if out.error else ''}")
    return bad


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    ns = p.parse_args(argv)

    limit_memory()
    signal.signal(signal.SIGALRM, _on_alarm)
    workroot = os.path.join(HERE, ".work")
    os.makedirs(workroot, exist_ok=True)
    where = tempfile.mkdtemp(prefix=f"{ns.workload}-", dir=workroot)
    try:
        # Set-up: everything before the first timed request.
        t0 = time.perf_counter()
        sys.path.insert(0, os.path.join(ROOT, "src"))
        cli = importlib.import_module("judgekit.cli")
        if not os.path.abspath(cli.__file__).startswith(os.path.join(ROOT, "src")):
            raise SystemExit(f"judgekit imported from {cli.__file__}, not the checkout")
        wl = inputs.build(ns.workload, ns.seed)
        for name, text in wl.docs.items():
            with open(os.path.join(where, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        for req in wl.warmup:
            run_request(cli, inputs.argv_in(req, where))
        setup_s = time.perf_counter() - t0
        if ns.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        if not ns.trace:
            # Enough cycles for a tail with TAIL_ABOVE values above it.
            least = -(-(2 * verdicts.TAIL_ABOVE + 1) // len(wl.cycle))
            records = run_loop(cli, wl, ns.seed, where, inputs.cycles(wl, ns.seconds, least))
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics, info = verdicts.end_to_end(records, rss_mb)
        else:
            import spans
            # An untraced loop over half the run, then the same cycles traced.
            cycles = inputs.cycles(wl, ns.seconds / 2)
            records = run_loop(cli, wl, ns.seed, where, cycles)
            untraced_s = sum(out.seconds for _, _, out, _ in records)
            tracer = spans.Tracer()
            tracer.install()
            try:
                more = run_loop(cli, wl, ns.seed, where, cycles, tracer=tracer)
            finally:
                tracer.uninstall()
            traced_s = sum(out.seconds for _, _, out, _ in more)
            os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
            tracer.write(os.path.join(HERE, "out", f"{ns.workload}-seed{ns.seed}.spans.tsv"))
            metrics = spans.per_layer(tracer, cycles, traced_s, untraced_s)
            info = {"cycles": cycles, "spans": len(tracer.spans)}
            records += more
        wrong = unexpected(records)
        for line in wrong:
            print(f"wrong verdict: {line}", file=sys.stderr)
        failed = sum(1 for *_, right in records if not right)
        print(json.dumps({"metrics": metrics, "info": info, "setup_s": setup_s,
                          "attempted": len(records), "failed": failed,
                          "known_defects": failed - len(wrong), "correct": not wrong}))
        return 0
    finally:
        shutil.rmtree(where, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
