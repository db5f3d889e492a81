"""From request outcomes to verdicts and end-to-end metrics.

A request's verdict is its exit code plus the ``status:`` line of its
``jt/1`` report.  It is right when both match the known answer and, for
an expected failure, when at least one of the named checks reports
``FAIL``.  A request that raised or hit a guard has no verdict and is
wrong.
"""

from __future__ import annotations

import re
import statistics
from collections import defaultdict
from dataclasses import dataclass

TAIL_ABOVE = 10   # samples that must lie above the tail order statistic

_CHECK = re.compile(r"^check (.*): (ok|FAIL)$")


@dataclass
class Outcome:
    seconds: float
    exit_code: object        # int, or None when the request raised
    report: str              # captured standard output
    error: str = ""          # set when the request raised or hit a guard


def verdict(out: Outcome):
    """``(exit code, status, failed check names)`` of one report."""
    status, failed = None, set()
    for line in out.report.splitlines():
        if line.startswith("status: "):
            status = line[len("status: "):].strip()
        m = _CHECK.match(line)
        if m and m.group(2) == "FAIL":
            failed.add(m.group(1))
    return out.exit_code, status, failed


def is_right(out: Outcome, expect: str, fail_checks=()) -> bool:
    if out.error:
        return False
    code, status, failed = verdict(out)
    if expect == "ok":
        return code == 0 and status == "ok"
    return code == 1 and status == "fail" and bool(failed.intersection(fail_checks))


def share(part: int, whole: int) -> float:
    if whole < 1:
        raise ValueError("a share needs at least one request")
    return part / whole


def tail(samples):
    """The highest order statistic with at least TAIL_ABOVE samples above
    it, and its percentile.  Raises when there are too few samples for
    that statistic to lie at or above the median."""
    xs = sorted(samples)
    n = len(xs)
    if n < 2 * TAIL_ABOVE + 1:
        raise ValueError(f"{n} samples: a tail with {TAIL_ABOVE} samples above "
                         f"it needs at least {2 * TAIL_ABOVE + 1}")
    k = n - TAIL_ABOVE - 1
    value = xs[k]
    if value < statistics.median(xs):
        raise ValueError(f"tail {value} below the median of {n} samples")
    return value, 100.0 * (k + 1) / n


def valued(records):
    """Every execution valued at the median time of its request's
    executions in the run.

    A run holds whole cycles only, and their number is fixed by
    ``--seconds`` (``inputs.cycles``), so every request has the same number
    of executions in every run of the same length.  The median of a
    request's executions drops a stretch in which the shared machine ran
    slow, without letting one lucky execution stand for the request."""
    times = defaultdict(list)
    for _, req, out, _ in records:
        times[req].append(out.seconds)
    mid = {req: statistics.median(ts) for req, ts in times.items()}
    return [mid[req] for _, req, _, _ in records]


def end_to_end(records, peak_rss_mb):
    """The end-to-end metrics of one untraced run other than ``setup_s``,
    from the ``(cycle, request, outcome, right)`` records of its whole
    cycles, plus the tail's percentile, the sample count and the median
    of the raw samples for the summary."""
    times = valued(records)
    raw = [out.seconds for _, _, out, _ in records]
    rights = [right for *_, right in records]
    value, pct = tail(times)
    return {
        "verdict_s.p50": (statistics.median(times), "s"),
        "verdict_s.tail": (value, "s"),
        "verdicts_per_s": (len(raw) / sum(raw), "1/s"),
        "right_verdict_share": (share(sum(rights), len(rights)), "share"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }, {"tail_percentile": pct, "samples": len(times), "raw_p50": statistics.median(raw)}
