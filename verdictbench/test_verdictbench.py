"""Tests of the benchmark's own logic: request sequences, known answers,
verdicts, the tail statistic and the shares.

    python3 -m unittest discover -s verdictbench -p 'test_*.py'
"""

from __future__ import annotations

import random
import re
import statistics
import unittest

import inputs
import verdicts
from verdicts import Outcome


def report(status, checks=()):
    lines = ["report jt/1", "command: check x.jt"]
    lines += [f"check {name}: {state}" for name, state in checks]
    return "\n".join(lines + [f"status: {status}"]) + "\n"


class SequenceTests(unittest.TestCase):
    def test_same_seed_same_sequence(self):
        for name in inputs.WORKLOADS:
            a, b = inputs.build(name, 7), inputs.build(name, 7)
            self.assertEqual(a.docs, b.docs)
            for cycle in range(3):
                self.assertEqual(inputs.sequence(a, 7, cycle), inputs.sequence(b, 7, cycle))

    def test_other_seed_other_sequence_same_mix(self):
        for name in inputs.WORKLOADS:
            a, b = inputs.build(name, 1), inputs.build(name, 2)
            self.assertNotEqual(a.docs, b.docs)
            self.assertNotEqual([r.argv for r in inputs.sequence(a, 1, 0)],
                                [r.argv for r in inputs.sequence(b, 2, 0)])
            # The seed changes names and order, never the cost mix.
            self.assertEqual(sorted((r.kind, r.expect, r.defect) for r in a.cycle),
                             sorted((r.kind, r.expect, r.defect) for r in b.cycle))

    def test_cycles_are_permutations(self):
        wl = inputs.build("jt-corpus", 3)
        for cycle in range(4):
            self.assertCountEqual(inputs.sequence(wl, 3, cycle), wl.cycle)

    def test_documents_exist_for_every_request(self):
        for name in inputs.WORKLOADS:
            wl = inputs.build(name, 5)
            for req in wl.cycle + wl.warmup:
                self.assertTrue(not req.doc or req.doc in wl.docs, req)
                self.assertEqual(inputs.argv_in(req, "/w").count(f"/w/{req.doc}"),
                                 1 if req.doc else 0)


class KnownAnswerTests(unittest.TestCase):
    def test_derive_workloads_expect_ok(self):
        for name in ("ndt-derive", "dtt-derive"):
            wl = inputs.build(name, 11)
            self.assertTrue(all(r.expect == "ok" and not r.defect for r in wl.cycle))

    def test_corpus_answer_table(self):
        wl = inputs.build("jt-corpus", 11)
        table = {}
        for r in wl.cycle:
            table.setdefault((r.kind, r.expect), 0)
            table[(r.kind, r.expect)] += 1
            if r.expect == "fail":
                self.assertTrue(r.fail_checks, r)
            else:
                self.assertEqual(r.fail_checks, ())
        self.assertEqual(table, {("check", "ok"): 7, ("check", "fail"): 8,
                                 ("close", "ok"): 3, ("derive forall", "fail"): 1})
        self.assertEqual(sorted(r.defect for r in wl.cycle if r.defect),
                         ["conflicting-composites", "forall-on-chain", "powerset-header"])

    def test_defect_inputs(self):
        wl = inputs.build("jt-corpus", 4)
        by_defect = {r.defect: r for r in wl.cycle if r.defect}
        header = wl.docs[by_defect["powerset-header"].doc]
        self.assertRegex(header, r"(?m)^doctrine \w+ = powerset x$")
        conflict = wl.docs[by_defect["conflicting-composites"].doc]
        m = re.search(r"(?m)^  (\w+) (?:o|∘) \1 = \1\n  \1 (?:o|∘) \1 = id_(\w+)$", conflict)
        self.assertIsNotNone(m)
        forall = by_defect["forall-on-chain"]
        self.assertEqual(forall.argv[-2:], ("--rule", "forall"))
        self.assertRegex(wl.docs[forall.doc], r"(?m)^doctrine \w+ = chain \d \d$")

    def test_oracles_confirm_the_breaks(self):
        n = 12
        table = {(i, j): (i + j) % n for i in range(1, n) for j in range(1, n)}
        self.assertTrue(inputs.monoid_is_associative(n, table))
        self.assertTrue(inputs.preserves_products(n, table, [(5 * i) % n for i in range(n)]))
        bad = dict(table)
        bad[(1, 1)] = 0
        self.assertFalse(inputs.monoid_is_associative(n, bad))
        self.assertFalse(inputs.preserves_products(n, table, [0, 2] + list(range(2, n))))
        self.assertTrue(inputs.chain_map_is_fibration(inputs._fibration_map(10, 4)))
        self.assertFalse(inputs.chain_map_is_fibration([0, 0, 2, 3]))
        rng = random.Random(0)
        for brk in ("", "classifier"):
            text, _ = inputs._chain_doc(rng, 10, 4, brk)
            proj = re.search(r"(?ms)^functor P : .*?\n\n", text).group(0)
            images = [int(x) for x in re.findall(r"object \w+?\d+ \|-> [a-z]+(\d+)", proj)]
            self.assertEqual(inputs.chain_map_is_fibration(images), brk == "")


class VerdictTests(unittest.TestCase):
    def test_ok(self):
        self.assertTrue(verdicts.is_right(Outcome(0.1, 0, report("ok")), "ok"))
        self.assertFalse(verdicts.is_right(Outcome(0.1, 1, report("fail")), "ok"))
        self.assertFalse(verdicts.is_right(Outcome(0.1, 0, report("fail")), "ok"))

    def test_fail_needs_the_named_check(self):
        out = Outcome(0.1, 1, report("fail", [("category A", "ok"), ("functor F", "FAIL")]))
        self.assertTrue(verdicts.is_right(out, "fail", ("functor F",)))
        self.assertFalse(verdicts.is_right(out, "fail", ("category A",)))
        self.assertFalse(verdicts.is_right(Outcome(0.1, 0, report("ok")), "fail", ("x",)))

    def test_raised_or_capped_is_wrong(self):
        self.assertFalse(verdicts.is_right(Outcome(0.1, None, "", "raised ValueError: x"),
                                           "fail", ("parse x",)))
        self.assertFalse(verdicts.is_right(Outcome(9.0, None, report("ok"), "hit the cap"),
                                           "ok"))


class StatisticsTests(unittest.TestCase):
    def test_tail_has_ten_samples_above(self):
        xs = [float(i) for i in range(1, 41)]
        random.Random(1).shuffle(xs)
        value, pct = verdicts.tail(xs)
        self.assertEqual(value, 30.0)
        self.assertEqual(sum(x > value for x in xs), verdicts.TAIL_ABOVE)
        self.assertAlmostEqual(pct, 75.0)

    def test_tail_never_below_median(self):
        rng = random.Random(2)
        for n in range(21, 80):
            xs = [rng.lognormvariate(0, 1) for _ in range(n)]
            value, _ = verdicts.tail(xs)
            self.assertGreaterEqual(value, statistics.median(xs))

    def test_too_few_samples_fail(self):
        with self.assertRaises(ValueError):
            verdicts.tail([1.0] * 20)

    def test_shares(self):
        self.assertEqual(verdicts.share(16, 19), 16 / 19)
        with self.assertRaises(ValueError):
            verdicts.share(0, 0)

    def test_end_to_end(self):
        reqs = [inputs.Request("check", ("check", f"d{i}.jt")) for i in range(10)]
        records = []
        for cycle in range(3):
            slow = 1.5 if cycle == 1 else 1.0     # one cycle in a slow stretch
            for i, req in enumerate(reqs):
                right = not (cycle == 0 and i == 0)
                fast = 0.9 if cycle == 2 else 1.0   # and one in a fast one
                records.append((cycle, req, Outcome(0.1 * (i + 1) * slow * fast, 0, ""),
                                right))
        m, info = verdicts.end_to_end(records, 40.0)
        # Each request valued at its median, the cycle-0 time.
        self.assertEqual(info["samples"], 30)
        self.assertAlmostEqual(m["verdict_s.p50"][0], 0.55)
        self.assertAlmostEqual(m["verdict_s.tail"][0], 0.7)
        self.assertAlmostEqual(info["raw_p50"], 0.6)
        # Throughput over the raw request time of the whole loop.
        self.assertAlmostEqual(m["verdicts_per_s"][0], 30 / (5.5 * (1 + 1.5 + 0.9)))
        self.assertAlmostEqual(m["right_verdict_share"][0], 29 / 30)
        self.assertEqual(m["peak_rss_mb"], (40.0, "MB"))

    def test_one_lucky_execution_does_not_set_the_value(self):
        req = inputs.Request("check", ("check", "d.jt"))
        times = [1.0, 1.1, 0.2]
        records = [(c, req, Outcome(t, 0, ""), True) for c, t in enumerate(times)]
        self.assertEqual(verdicts.valued(records), [1.0, 1.0, 1.0])

    def test_cycles_fixed_by_run_length(self):
        for name in inputs.WORKLOADS:
            wl = inputs.build(name, 1)
            self.assertEqual(inputs.cycles(wl, 10 * inputs.CYCLE_S[name]), 10)
            self.assertEqual(inputs.cycles(wl, 0.1, least=3), 3)


class CoverageTests(unittest.TestCase):
    class Folded:
        """Stands in for a Tracer: 1 s of self time, 0.8 s of it below cli."""
        counts, sizes = {}, [[1, 1, 1]]

        def fold(self):
            from collections import Counter
            mod = Counter({"cli": 0.2, "core": 0.8})
            return Counter(), Counter(), mod, Counter(), Counter()

    def test_self_times_must_cover_the_traced_time(self):
        from collections import defaultdict
        import spans
        tracer = self.Folded()
        tracer.counts = defaultdict(lambda: defaultdict(int))
        out = spans.per_layer(tracer, 1, traced_s=1.002, untraced_s=0.8)
        self.assertAlmostEqual(out["trace.coverage_share"][0], 0.8 / 1.002)
        self.assertAlmostEqual(out["trace.overhead_share"][0], 0.202 / 0.8)
        with self.assertRaises(ValueError):     # a request outside the wrapped names
            spans.per_layer(tracer, 1, traced_s=1.5, untraced_s=0.8)

if __name__ == "__main__":
    unittest.main()
