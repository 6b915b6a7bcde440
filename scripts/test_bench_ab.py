#!/usr/bin/env python3
"""Unit tests of the A/B gate's decision, over canned result documents.

Run: python3 scripts/test_bench_ab.py
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_ab import decide, pair_ratios, pairs_won, parse_run, ratio_range  # noqa: E402

END_TO_END = [
    {"name": "units_per_s", "better": "higher", "bound": 0.25},
    {"name": "setup_s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
]


def run(units=100.0, setup=1.0, rss=40.0, correct=True, failed=0, exit_status=0):
    values = {"units_per_s": units, "setup_s": setup, "peak_rss_mb": rss}
    metrics = {k: {"value": v, "unit": "u"} for k, v in values.items()}
    doc = {"correct": correct, "attempted": 1000, "failed": failed, "metrics": metrics}
    return parse_run(exit_status, "workload w seed 1\n" + json.dumps(doc) + "\n")


def verdict(changes, base=None):
    return decide(END_TO_END, {"w": [(base or run(), c) for c in changes]})


class DecideTest(unittest.TestCase):
    def test_metrics_within_their_bounds_pass(self):
        rows, failures = verdict([run(units=90.0, setup=1.2, rss=43.0)] * 5)
        self.assertEqual(failures, [])
        self.assertEqual([r[:4] + r[5:] for r in rows[:1]], [("w", "units_per_s", 100.0, 90.0, 0.25)])
        self.assertAlmostEqual(rows[0][4], 100.0 / 90.0)

    def test_fewer_units_per_second_beyond_the_bound_fail(self):
        _, failures = decide(END_TO_END, {"campaign-cifar": [(run(), run(units=79.0))] * 5})
        self.assertEqual(len(failures), 1)
        self.assertIn("campaign-cifar: units_per_s", failures[0])

    def test_setup_time_is_lower_is_better(self):
        _, up = verdict([run(setup=1.3)] * 5)
        self.assertEqual(len(up), 1)
        self.assertIn("setup_s", up[0])
        self.assertEqual(verdict([run(setup=0.5)] * 5)[1], [])

    def test_one_outlier_pair_does_not_fail_the_median(self):
        rows, failures = verdict([run(units=20.0, setup=5.0, rss=90.0)] + [run()] * 4)
        self.assertEqual(failures, [])
        self.assertEqual(rows[0][4], 1.0)

    def test_a_failed_change_unit_fails_despite_good_timings(self):
        _, failures = verdict([run(units=200.0, correct=False, failed=1)] + [run()] * 4)
        self.assertEqual(failures, ["w: change run of pair 1: correct: false"])

    def test_a_missing_result_or_a_crash_fails(self):
        changes = [run()] * 5
        changes[2] = parse_run(0, "benchmark build failed\n")
        changes[4] = run(exit_status=101)
        self.assertEqual(
            verdict(changes)[1],
            ["w: change run of pair 3: no result document", "w: change run of pair 5: exit status 101"],
        )

    def test_a_change_run_missing_an_end_to_end_metric_fails(self):
        missing = run()
        del missing["doc"]["metrics"]["units_per_s"]
        self.assertEqual(
            verdict([missing] * 5)[1],
            [f"w: change run of pair {i}: units_per_s is None, not a positive value" for i in range(1, 6)],
        )

    def test_a_zero_end_to_end_value_fails(self):
        changes = [run()] * 5
        changes[1] = run(units=0.0)
        self.assertEqual(
            verdict(changes)[1], ["w: change run of pair 2: units_per_s is 0.0, not a positive value"]
        )

    def test_base_side_pin_failures_do_not_fail_the_gate(self):
        self.assertEqual(verdict([run()] * 5, base=run(correct=False, failed=3))[1], [])



class PairsWonTest(unittest.TestCase):
    def test_counts_strict_wins_in_the_metric_direction(self):
        pairs = [(run(), run(units=u, setup=s)) for u, s in [(110, 0.9), (90, 1.1), (100, 1.0), (101, 0.5)]]
        self.assertEqual(pairs_won(END_TO_END[0], pairs), (2, 4))
        self.assertEqual(pairs_won(END_TO_END[1], pairs), (2, 4))

    def test_pairs_missing_a_value_are_not_compared(self):
        missing = run(units=500.0)
        del missing["doc"]["metrics"]["units_per_s"]
        pairs = [(run(), run(units=120.0)), (run(), missing), (run(), parse_run(1, ""))]
        self.assertEqual(pairs_won(END_TO_END[0], pairs), (1, 1))

    def test_the_count_does_not_change_the_verdict(self):
        # Two of five pairs won does not rescue a median ratio (100/70)
        # past the bound.
        changes = [run(units=101.0)] * 2 + [run(units=70.0)] * 3
        self.assertEqual(pairs_won(END_TO_END[0], [(run(), c) for c in changes]), (2, 5))
        self.assertEqual(len(verdict(changes)[1]), 1)


class RatioRangeTest(unittest.TestCase):
    def test_lowest_and_highest_pair_ratio_in_the_metric_direction(self):
        pairs = [(run(), run(units=u, rss=r)) for u, r in [(125.0, 44.0), (80.0, 40.0), (100.0, 38.0)]]
        self.assertEqual(ratio_range(END_TO_END[0], pairs), (0.8, 1.25))
        self.assertEqual(ratio_range(END_TO_END[2], pairs), (0.95, 1.1))

    def test_pairs_missing_a_value_are_left_out(self):
        missing = run(units=500.0)
        del missing["doc"]["metrics"]["units_per_s"]
        pairs = [(run(), run(units=50.0)), (run(), missing), (parse_run(1, ""), run())]
        self.assertEqual(pair_ratios(END_TO_END[0], pairs), [2.0])
        self.assertEqual(ratio_range(END_TO_END[0], pairs[1:]), (None, None))

    def test_the_range_does_not_change_the_verdict(self):
        # One pair far past the bound widens the range; the median of the
        # five ratios, and so the verdict, stays where it was.
        changes = [run(units=50.0)] + [run(units=95.0)] * 4
        pairs = [(run(), c) for c in changes]
        self.assertEqual(ratio_range(END_TO_END[0], pairs), (100.0 / 95.0, 2.0))
        rows, failures = verdict(changes)
        self.assertEqual(failures, [])
        self.assertAlmostEqual(rows[0][4], 100.0 / 95.0)


if __name__ == "__main__":
    unittest.main()
