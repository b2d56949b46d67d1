"""Tests of the benchmark's answer checker: `python3 perfbench/test_check.py`."""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check  # noqa: E402

# Measured on a zipf-hub(20000, 100000, 1.2) graph: 836044 triangles,
# `sgs count` printed 18823 hits of 2000000 trials.
CHECKS = {"triangle": {"exact": 836044, "m": 100000, "rho": 1.5},
          "K4": {"exact": 9218287, "m": 100000, "rho": 2}}
GOOD = ("#triangle ≈ 841790.2   (hits 18823/2000000, rho=3/2, 3 passes, m=100000, "
        "1 shard, block 128, reservoir skip) bits=4129b07c4d36e97d")


class HitsBound(unittest.TestCase):
    def test_true_answer_passes(self):
        answers = check.parse_count_output(GOOD)
        self.assertEqual(answers, [("triangle", 18823, 2000000, "4129b07c4d36e97d")])
        self.assertEqual(check.check_batch_answers(answers, ["triangle"], CHECKS), 0)

    def test_perturbed_answer_fails(self):
        # Expected hits ≈ 18697 with sd ≈ 136: 6% more is ≈ 8 sd away.
        bad = GOOD.replace("hits 18823/", "hits 19900/")
        answers = check.parse_count_output(bad)
        self.assertEqual(check.check_batch_answers(answers, ["triangle"], CHECKS), 1)

    def test_wrong_exact_count_fails(self):
        answers = check.parse_count_output(GOOD)
        wrong = {"triangle": dict(CHECKS["triangle"], exact=800000)}
        self.assertEqual(check.check_batch_answers(answers, ["triangle"], wrong), 1)

    def test_missing_and_renamed_answers_fail(self):
        answers = check.parse_count_output(GOOD)
        self.assertEqual(check.check_batch_answers([], ["triangle"], CHECKS), 1)
        self.assertEqual(check.check_batch_answers(answers, ["K4"], CHECKS), 1)
        two = answers * 2
        self.assertEqual(check.check_batch_answers(two, ["triangle"], CHECKS), 1)

    def test_setup_answers_are_checked_for_shape_only(self):
        one = [("triangle", 1, 1, "0" * 16)]
        self.assertEqual(check.check_batch_answers(one, ["triangle"], CHECKS, False), 0)
        self.assertEqual(check.check_batch_answers(one, ["triangle"], CHECKS), 1)

    def test_bound_edges(self):
        self.assertTrue(check.hits_ok(0, 10, 0, 5, 1.5))
        self.assertFalse(check.hits_ok(1, 10, 0, 5, 1.5))
        self.assertFalse(check.hits_ok(11, 10, 5, 5, 1.5))
        self.assertFalse(check.hits_ok(0, 0, 5, 5, 1.5))


class ServeReplies(unittest.TestCase):
    PREFIX = [0, 0, 0, 1, 1, 2, 4]  # K4 inserted edge by edge

    def test_ingest_positions_must_be_consecutive(self):
        self.assertEqual(check.check_ingest_replies(["OK 5", "OK 6", "OK 7"], 5), 0)
        self.assertEqual(check.check_ingest_replies(["OK 5", "OK 7", "OK 8"], 5), 2)
        self.assertEqual(check.check_ingest_replies(["ERR busy"], 0), 1)

    def test_count_reply_against_running_count(self):
        # 6 edges, 4 triangles: p = 4 / 12^1.5 ≈ 0.0962; 1000 trials ≈ 96 hits.
        ok = "OK #triangle ≈ 4.0 (hits 96/1000, seed 1) prefix=6 bits=4010000000000000"
        self.assertTrue(check.check_count_reply(ok, self.PREFIX, 1.5, 1000))
        perturbed = ok.replace("hits 96/", "hits 160/")
        self.assertFalse(check.check_count_reply(perturbed, self.PREFIX, 1.5, 1000))
        self.assertFalse(check.check_count_reply(ok.replace("prefix=6", "prefix=2"),
                                                 self.PREFIX, 1.5, 1000))
        self.assertFalse(check.check_count_reply("ERR busy", self.PREFIX, 1.5, 1000))
        self.assertFalse(check.check_count_reply(ok, self.PREFIX, 1.5, 2000))


class Schema(unittest.TestCase):
    SPEC = {
        "command": ["python3", "perfbench/run.py"], "paths": ["perfbench"], "run_seconds": 10,
        "workloads": [{"name": "a", "why": "x"}, {"name": "b", "why": "y"}],
        "end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}],
        "per_layer": [{"name": "l.x", "unit": "ms", "better": "lower"}],
    }

    def test_spec_and_results(self):
        self.assertEqual(check.validate_benchmark(self.SPEC), [])
        good = {"correct": True, "attempted": 3, "failed": 0,
                "metrics": {"setup_s": {"value": 0.5, "unit": "s"}}}
        self.assertEqual(check.validate_result(good, self.SPEC, trace=False), [])
        zero = dict(good, metrics={"setup_s": {"value": 0.0, "unit": "s"}})
        self.assertTrue(check.validate_result(zero, self.SPEC, trace=False))
        layer = dict(good, metrics={"l.x": {"value": 0, "unit": "ms"}})
        self.assertEqual(check.validate_result(layer, self.SPEC, trace=True), [])
        self.assertTrue(check.validate_result(layer, self.SPEC, trace=False))


if __name__ == "__main__":
    unittest.main()
