#!/usr/bin/env python3
"""Self-tests of the benchmark's own code.

    python3 perfbench/selftest.py

Checks the percentile and tail selection and the span self time on known
inputs, the compare tool's verdicts on made-up run sets, that the
correctness gate rejects a doctored verdict, a corrupted certificate and
a witness that does not replay, and that a serve daemon crash counts
every unanswered submission as failed (these build seqver first, as
run.py does).
"""

import os
import shutil
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import benchlib as bl  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402


class Stats(unittest.TestCase):
    def test_tail_leaves_ten_samples_beyond(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(bl.tail(values), (90, 90.0, 100))
        values = list(range(1, 41))
        self.assertEqual(bl.tail(values), (30, 75.0, 40))

    def test_tail_never_below_median(self):
        # rank 10 of 20 leaves ten beyond but lies below the median 10.5
        self.assertEqual(bl.tail(list(range(1, 21))), (10.5, 50.0, 20))
        self.assertEqual(bl.tail([5.0, 1.0, 3.0]), (3.0, 50.0, 3))
        self.assertEqual(bl.tail([7.0]), (7.0, 50.0, 1))
        self.assertEqual(bl.tail(list(range(1, 22))), (11, 100.0 * 11 / 21, 21))

    def test_tail_ignores_input_order(self):
        values = [float(x % 17) for x in range(60)]
        self.assertEqual(bl.tail(values), bl.tail(sorted(values)))

    def test_quartiles_and_spread(self):
        values = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
        self.assertEqual(bl.quartiles(values), (2.75, 5.5, 8.25))
        self.assertAlmostEqual(bl.spread(values), 5.5 / 5.5)
        self.assertEqual(bl.quartiles([4.0]), (4.0, 4.0, 4.0))


class Spans(unittest.TestCase):
    # root 0..10 with children a 1..4, c 3..5 (overlapping a) and b 5..9;
    # b has one child d 6..7
    SPANS = [
        (0, "root", -1, 0.0, 10.0),
        (1, "a", 0, 1.0, 4.0),
        (2, "b", 0, 5.0, 9.0),
        (3, "d", 2, 6.0, 7.0),
        (4, "c", 0, 3.0, 5.0),
    ]

    def test_self_time_subtracts_covered_children(self):
        s = bl.self_times(self.SPANS)
        # children of root cover 1..5 and 5..9: 8 of 10
        self.assertAlmostEqual(s["root"], 2.0)
        self.assertAlmostEqual(s["b"], 3.0)
        self.assertAlmostEqual(s["a"], 3.0)
        self.assertAlmostEqual(s["c"], 2.0)
        self.assertAlmostEqual(s["d"], 1.0)

    def test_self_time_sums_by_name(self):
        spans = [(0, "run", -1, 0.0, 4.0), (1, "it", 0, 0.0, 1.0), (2, "it", 0, 2.0, 3.5)]
        self.assertEqual(bl.self_times(spans), {"run": 1.5, "it": 2.5})
        self.assertEqual(bl.total_times(spans), {"run": 4.0, "it": 2.5})


class Compare(unittest.TestCase):
    @staticmethod
    def verdict(a, b, better="lower", bound=0.1):
        paired = list(zip(range(len(a)), range(len(b))))
        return compare.verdict(a, b, paired, better, bound)

    def test_same_code_is_no_worse_both_ways(self):
        a = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.01, 0.99]
        b = [1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.03, 0.98]
        self.assertEqual(self.verdict(a, b), "no worse")
        self.assertEqual(self.verdict(b, a), "no worse")

    def test_clear_gain_and_regression(self):
        a = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.01, 0.99]
        faster = [x * 0.7 for x in a]
        self.assertEqual(self.verdict(a, faster), "improved")
        self.assertEqual(self.verdict(faster, a), "regressed")
        self.assertEqual(self.verdict(a, [x * 0.7 for x in a], better="higher"), "regressed")

    def test_any_extra_failure_regresses(self):
        base = [{"failed": 0}] * 10
        one = [{"failed": 0}] * 9 + [{"failed": 1}]
        self.assertEqual(compare.failures(base, one), (0, 1, "regressed"))
        self.assertEqual(compare.failures(one, base), (1, 0, "no worse"))
        self.assertEqual(compare.failures(base, base)[2], "no worse")

    def test_wide_spread_is_unresolved(self):
        a = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0]
        b = [1.1, 2.1, 1.1, 2.1, 1.1, 2.1, 1.1, 2.1]
        self.assertEqual(self.verdict(a, b), "unresolved")


class Gate(unittest.TestCase):
    """The gate against the real program: inputs from the tracer's gen,
    verdicts from `seqver verify`."""

    @classmethod
    def setUpClass(cls):
        run.build()
        cls.dir = tempfile.mkdtemp(dir=run.WORK)
        cls.good = run.Item("g0", "ctr8", "sat", 1, "equivalent")
        cls.bad = run.Item("g1", "ctr8", "sat", 1, "not_equivalent", mutant_seed=7, kind="mutant")
        run.generate([cls.good, cls.bad], cls.dir)
        cls.proof = run.run_verify(cls.good, cls.dir)
        cls.refutation = run.run_verify(cls.bad, cls.dir)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.dir, ignore_errors=True)

    def test_genuine_verdicts_pass(self):
        self.assertEqual(self.proof["verdict"], "equivalent")
        self.assertEqual(self.refutation["verdict"], "not_equivalent")
        run.gate_sample(self.proof)
        run.gate_sample(self.refutation)

    def test_doctored_verdict_is_rejected(self):
        doctored = dict(self.proof, verdict="not_equivalent")
        with self.assertRaisesRegex(bl.GateError, "g0/ctr8"):
            run.gate_sample(doctored)
        with self.assertRaises(bl.GateError):
            bl.check_verdict("x", "equivalent", "not_equivalent")
        bl.check_verdict("x", "unknown", "equivalent")  # not wrong: counted as undecided

    def test_corrupted_certificate_is_rejected(self):
        with open(self.proof["cert"]) as f:
            lines = f.read().splitlines()
        # negate one member of a two-member class: the relation now claims
        # a false equivalence, while the fingerprints still match
        i = next(i for i, l in enumerate(lines) if l.startswith("class ") and len(l.split()) == 4)
        words = lines[i].split()
        words[-1] = str(int(words[-1]) ^ 1)
        lines[i] = " ".join(words)
        corrupt = os.path.join(self.dir, "corrupt.cert")
        with open(corrupt, "w") as f:
            f.write("\n".join(lines) + "\n")
        with self.assertRaisesRegex(bl.GateError, "rejected \\(exit 1\\)"):
            bl.check_certificate(run.SEQVER, "corrupt", corrupt, self.good.spec, self.good.impl)
        garbage = os.path.join(self.dir, "garbage.cert")
        with open(garbage, "w") as f:
            f.write("not a certificate\n")
        with self.assertRaises(bl.GateError):
            bl.check_certificate(run.SEQVER, "garbage", garbage, self.good.spec, self.good.impl)

    def test_non_replaying_witness_is_rejected(self):
        # the refutation's witness shows no mismatch on the equivalent pair
        with self.assertRaises(bl.GateError):
            bl.check_witness(run.SEQVER, "wrong pair", self.refutation["witness"],
                             self.good.spec, self.good.impl)
        with open(self.refutation["witness"]) as f:
            n_pis = int(next(l.split()[1] for l in f if l.startswith("pis ")))
        # a witness whose frames do not fit the circuits' inputs
        wide = os.path.join(self.dir, "wide.wit")
        bl.write_witness(wide, ["0" * (n_pis + 1)] * 3)
        with self.assertRaises(bl.GateError):
            bl.check_witness(run.SEQVER, "wide", wide, self.bad.spec, self.bad.impl)


class ServeFailure(unittest.TestCase):
    """A daemon that dies under the loop fails the run, and every
    submission it did not answer counts as failed."""

    def test_crash_counts_every_unanswered_submission(self):
        run.build()
        rundir = tempfile.mkdtemp(dir=run.WORK)
        loop = run.serve_loop

        def crashing(daemon, items, rundir):
            daemon.proc.kill()
            return loop(daemon, items, rundir)

        run.serve_loop = crashing
        try:
            args = run.argparse.Namespace(workload="serve-mix", seed=1, seconds=1.0, trace=0)
            with self.assertRaises(run.DaemonFailed) as cm:
                run.run_serve(args, rundir)
            attempted, failed = cm.exception.result[:2]
            self.assertEqual(attempted, len(list(run.serve_items(1, 1))))
            self.assertEqual(failed, attempted)
        finally:
            run.serve_loop = loop
            shutil.rmtree(rundir, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
