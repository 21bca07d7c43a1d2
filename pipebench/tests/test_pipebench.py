#!/usr/bin/env python3
"""Tests of the pipeline benchmark's own logic.

    python3 pipebench/tests/test_pipebench.py

The aggregation tests use synthetic pass records. The operation-counting
test builds the pass driver (as run.py does) and runs a shrunken workload
twice with one kind of operation forced to fail.
"""

import io
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import run  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(HERE))


def fake_pass(times, setup=1.0, rss_kb=1024, csv=b"x", checks=None):
    """A pass record with units named u0.. in the phases given by `times`."""
    units = [["u%d" % i, phase, t] for i, (phase, t) in enumerate(times)]
    return {"units": units, "setup_s": setup, "peak_rss_kb": rss_kb,
            "values": {"corpus_windows": 100.0}, "csv": csv,
            "checks": checks or {}, "attempted": len(units), "failures": []}


class Aggregation(unittest.TestCase):
    def test_unit_minimum_is_taken_per_unit_then_summed(self):
        # Each pass is slow on a different unit (a burst); the per-unit
        # minimum recovers the quiet time of every unit.
        passes = [
            fake_pass([("corpus", 1.0), ("attempt", 9.0), ("attempt", 2.0),
                       ("attempt", 3.0)]),
            fake_pass([("corpus", 1.0), ("attempt", 1.0), ("attempt", 9.0),
                       ("attempt", 3.0)]),
            fake_pass([("corpus", 1.0), ("attempt", 1.0), ("attempt", 2.0),
                       ("attempt", 9.0)]),
        ]
        mins = run.unit_minimums(passes)
        self.assertEqual([m[2] for m in mins], [1.0, 1.0, 2.0, 3.0])
        e2e = run.end_to_end("online_evasion", passes)
        self.assertAlmostEqual(e2e["attempts_per_s"], 3 / 6.0)

    def test_phases_feed_their_metrics(self):
        passes = [
            fake_pass([("corpus", 0.5), ("corpus", 0.5), ("fit", 2.0),
                       ("session", 0.1), ("attempt", 0.25)],
                      setup=4.0, rss_kb=2048),
            fake_pass([("corpus", 0.6), ("corpus", 0.4), ("fit", 3.0),
                       ("session", 0.2), ("attempt", 0.5)],
                      setup=3.0, rss_kb=4096),
        ]
        e2e = run.end_to_end("offline_sweep", passes)
        self.assertAlmostEqual(e2e["corpus_windows_per_s"], 100 / 0.9)
        self.assertAlmostEqual(e2e["train_s"], 2.0)
        self.assertAlmostEqual(e2e["attempts_per_s"], 4.0)
        self.assertAlmostEqual(e2e["setup_s"], 3.0)
        self.assertAlmostEqual(e2e["peak_rss_mb"], 4.0)

    def test_corpus_train_counts_runs_and_fits_as_operations(self):
        passes = [fake_pass([("corpus", 1.0), ("corpus", 1.0), ("fit", 2.0)])]
        e2e = run.end_to_end("corpus_train", passes)
        self.assertAlmostEqual(e2e["attempts_per_s"], 3 / 4.0)

    def test_passes_with_different_units_are_refused(self):
        a = fake_pass([("attempt", 1.0)])
        b = fake_pass([("attempt", 1.0), ("attempt", 1.0)])
        with self.assertRaises(run.BenchError):
            run.unit_minimums([a, b])

    def test_outputs_must_match_between_passes(self):
        same = [fake_pass([("fit", 1.0)]), fake_pass([("fit", 1.0)])]
        self.assertTrue(all(run.verdict(same, []).values()))
        differ = [fake_pass([("fit", 1.0)]),
                  fake_pass([("fit", 1.0)], csv=b"y")]
        self.assertFalse(run.verdict(differ, [])["passes_byte_identical_csv"])
        traced = [fake_pass([("fit", 1.0)], csv=b"z")]
        self.assertFalse(
            run.verdict(same, traced)["traced_outputs_equal_untraced"])

    def test_a_failed_check_in_any_pass_fails_the_workload(self):
        passes = [fake_pass([("fit", 1.0)], checks={"shape": True}),
                  fake_pass([("fit", 1.0)], checks={"shape": False})]
        self.assertFalse(run.verdict(passes, [])["shape"])

    def test_pass_count_depends_on_seconds_only(self):
        self.assertEqual(run.passes_for("corpus_train", 1), run.MIN_PASSES)
        self.assertEqual(run.passes_for("online_evasion", 28), 4)


SMALL = {"windows_per_class": "150", "classifiers": "LR SVM",
         "online_attempts": "3"}


def run_small(overrides, trace=False):
    """A shrunken online_evasion run of two passes."""
    cfg = dict(SMALL)
    cfg.update(overrides)
    return run.run("online_evasion", 5, 1, trace, ROOT, overrides=cfg,
                   passes=2, log=io.StringIO())


class OperationCounting(unittest.TestCase):
    """A forced failure is counted against the operations attempted, the
    same share in every run, and leaves `correct` to the other checks."""

    def test_forced_failures_are_counted(self):
        clean, _ = run_small({})
        self.assertEqual(clean["failed"], 0)
        # Per pass: 2 panels x 2 classifiers x 3 attempts.
        self.assertEqual(clean["attempted"], 2 * 2 * 2 * 3)
        forced, _ = run_small({"force_fail": "b."})
        self.assertEqual(forced["attempted"], clean["attempted"])
        self.assertEqual(forced["failed"], 2 * 2 * 3)  # 2 passes x panel b
        again, _ = run_small({"force_fail": "b."})
        self.assertEqual(again["failed"] / again["attempted"],
                         forced["failed"] / forced["attempted"])


class ProgramEquivalence(unittest.TestCase):
    def test_campaigns_are_the_programs(self):
        # Every run's first pass replays the campaign loop with
        # core::run_campaign's attempt seeds and compares it with the
        # program's loop.
        _, checks = run_small({})
        self.assertTrue(checks["campaigns_equal_program_campaigns"])
        self.assertTrue(checks["algorithm2_mutation_rule"])

    def test_traced_passes_match_untraced(self):
        result, checks = run_small({}, trace=True)
        self.assertTrue(checks["traced_outputs_equal_untraced"])
        self.assertTrue(checks["traced_mirror_matches_detector"])
        self.assertGreater(result["metrics"]["ml.partial_fit_ms"]["value"], 0)
        self.assertEqual(
            result["metrics"]["hid.incremental_updates"]["value"], 12)


if __name__ == "__main__":
    unittest.main()
