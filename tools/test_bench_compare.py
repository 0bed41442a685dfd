#!/usr/bin/env python3
"""Regression tests for bench_compare.py's JSON-diff modes and the
summary of its interleaved perfbench pairs.

The bug these pin down: a baseline row with a zero or missing metric
(an older bench build that didn't emit it, or a mode that completed no
flows) used to produce ratio = inf, which both crashed --coexist on the
missing keys (KeyError) and poisoned the --fail-above gate with a
spurious FAIL. The fixed behaviour: such rows print `n/a`, are excluded
from the worst-ratio gate, and --fail-above only fires on genuine
regressions.

Run directly (no third-party deps):  python3 tools/test_bench_compare.py
"""

import contextlib
import importlib.util
import io
import json
import os
import sys
import tempfile
import unittest

_HERE = os.path.dirname(os.path.abspath(__file__))
_SPEC = importlib.util.spec_from_file_location(
    "bench_compare", os.path.join(_HERE, "bench_compare.py"))
bench_compare = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_compare)


def write_report(tmpdir, name, rows, context=None):
    path = os.path.join(tmpdir, name)
    doc = {"benchmarks": rows}
    if context is not None:
        doc["context"] = context
    with open(path, "w") as f:
        json.dump(doc, f)
    return path


def run_compare(fn, base_rows, test_rows, fail_above=None, contexts=(None, None)):
    """Runs one compare_* function on crafted reports.

    Returns (exit_code_or_None, captured_stdout, exit_message). SystemExit
    with a string message maps to exit code 1 (that is what sys.exit does).
    """
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        base = write_report(tmp, "base.json", base_rows, contexts[0])
        test = write_report(tmp, "test.json", test_rows, contexts[1])
        try:
            with contextlib.redirect_stdout(out):
                fn(base, test, fail_above)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 1
            return code, out.getvalue(), str(e.code)
    return None, out.getvalue(), ""


class RatioOfTest(unittest.TestCase):
    def test_normal_ratio(self):
        self.assertAlmostEqual(bench_compare.ratio_of(3.0, 2.0), 1.5)

    def test_zero_or_missing_baseline_is_none(self):
        self.assertIsNone(bench_compare.ratio_of(3.0, 0))
        self.assertIsNone(bench_compare.ratio_of(3.0, 0.0))
        self.assertIsNone(bench_compare.ratio_of(3.0, None))

    def test_zero_candidate_is_none(self):
        # 0/old = 0 would read as an infinitely-good speedup; also n/a.
        self.assertIsNone(bench_compare.ratio_of(0, 5.0))


class CompareScaleTest(unittest.TestCase):
    def test_zero_baseline_time_does_not_fail_gate(self):
        base = [{"name": "BM_Scale/fattree_k4/amrt", "real_time": 0.0}]
        test = [{"name": "BM_Scale/fattree_k4/amrt", "real_time": 12.5,
                 "events_per_second": 1e6}]
        code, out, _ = run_compare(bench_compare.compare_scale, base, test,
                                   fail_above=1.05)
        self.assertIsNone(code, f"zero baseline must not trip --fail-above:\n{out}")
        self.assertIn("n/a", out)

    def test_missing_metric_keys_do_not_crash(self):
        # An old report without real_time/events_per_second at all.
        base = [{"name": "BM_Scale/fattree_k4/amrt"}]
        test = [{"name": "BM_Scale/fattree_k4/amrt", "real_time": 12.5}]
        code, out, _ = run_compare(bench_compare.compare_scale, base, test,
                                   fail_above=1.05)
        self.assertIsNone(code)
        self.assertIn("n/a", out)

    def test_new_only_row_without_metrics_does_not_crash(self):
        base = [{"name": "BM_Scale/fattree_k4/amrt", "real_time": 10.0}]
        test = [{"name": "BM_Scale/fattree_k4/amrt", "real_time": 10.0},
                {"name": "BM_Scale/fattree_k4/amrt/flow"}]  # new row, no metrics
        code, out, _ = run_compare(bench_compare.compare_scale, base, test)
        self.assertIsNone(code)
        self.assertIn("new: BM_Scale/fattree_k4/amrt/flow", out)

    def test_genuine_regression_still_fails(self):
        base = [{"name": "BM_Scale/fattree_k4/amrt", "real_time": 10.0}]
        test = [{"name": "BM_Scale/fattree_k4/amrt", "real_time": 20.0}]
        code, out, msg = run_compare(bench_compare.compare_scale, base, test,
                                     fail_above=1.5)
        self.assertEqual(code, 1)
        self.assertIn("2.000", msg)

    def test_no_fail_above_never_exits(self):
        base = [{"name": "a", "real_time": 10.0}]
        test = [{"name": "a", "real_time": 500.0}]
        code, _, _ = run_compare(bench_compare.compare_scale, base, test)
        self.assertIsNone(code)


def scale_row(name, real_time, events=1000, delivered_pkts=500, completed=40, shards=1):
    return {"name": name, "real_time": real_time, "events": events,
            "delivered_pkts": delivered_pkts, "completed": completed, "shards": shards}


class CompareScaleOutcomesTest(unittest.TestCase):
    def test_equal_outcomes_pass(self):
        base = [scale_row("a", 10.0), scale_row("a/flow", 1.0, events=80)]
        test = [scale_row("a", 8.0), scale_row("a/flow", 0.9, events=80)]
        code, out, _ = run_compare(bench_compare.compare_scale, base, test)
        self.assertIsNone(code, out)
        self.assertNotIn("contexts differ", out)

    def test_each_moved_outcome_is_flagged_and_fails(self):
        for key in ("events", "delivered_pkts", "completed"):
            with self.subTest(key=key):
                moved = scale_row("a/flow", 1.0)
                moved[key] += 1
                code, out, msg = run_compare(bench_compare.compare_scale,
                                             [scale_row("a/flow", 1.0), scale_row("b", 2.0)],
                                             [moved, scale_row("b", 2.0)])
                self.assertEqual(code, 1)
                self.assertIn(f"outcome moved: a/flow: {key} ", msg)
                self.assertNotIn("b:", msg)
                self.assertIn("a/flow", out)  # the table still prints first

    def test_events_of_other_shard_counts_are_not_compared(self):
        base = [scale_row("a", 10.0, events=1000)]
        test = [scale_row("a", 5.0, events=1129, shards=4)]
        code, out, _ = run_compare(bench_compare.compare_scale, base, test)
        self.assertIsNone(code, out)
        test[0]["completed"] -= 1
        code, _, msg = run_compare(bench_compare.compare_scale, base, test)
        self.assertEqual(code, 1)
        self.assertIn("completed 40 -> 39", msg)

    def test_outcome_and_ratio_failures_are_both_named(self):
        code, _, msg = run_compare(bench_compare.compare_scale, [scale_row("a", 10.0)],
                                   [scale_row("a", 20.0, completed=39)], fail_above=1.5)
        self.assertEqual(code, 1)
        self.assertIn("completed 40 -> 39", msg)
        self.assertIn("2.000", msg)

    def test_differing_contexts_print_both(self):
        base_ctx = {"k": 16, "flows": 2000, "cpu": "old box"}
        test_ctx = {"k": 16, "flows": 2000, "cpu": "new box"}
        code, out, _ = run_compare(bench_compare.compare_scale, [scale_row("a", 1.0)],
                                   [scale_row("a", 1.0)], contexts=(base_ctx, test_ctx))
        self.assertIsNone(code)
        self.assertIn("contexts differ", out)
        self.assertIn('"cpu": "old box"', out)
        self.assertIn('"cpu": "new box"', out)

    def test_equal_contexts_print_nothing(self):
        ctx = {"k": 16, "flows": 2000}
        _, out, _ = run_compare(bench_compare.compare_scale, [scale_row("a", 1.0)],
                                [scale_row("a", 1.0)], contexts=(ctx, dict(ctx)))
        self.assertNotIn("contexts differ", out)


class CompareCoexistTest(unittest.TestCase):
    def test_missing_p99_and_afct_keys(self):
        # The pre-fix code did b["afct_us"] / b["p99_us"] unguarded: KeyError.
        base = [{"name": "coexist/mixed"}]
        test = [{"name": "coexist/mixed", "afct_us": 100.0, "p99_us": 900.0}]
        code, out, _ = run_compare(bench_compare.compare_coexist, base, test,
                                   fail_above=1.1)
        self.assertIsNone(code, f"missing baseline keys must not crash or fail:\n{out}")
        self.assertIn("n/a", out)

    def test_zero_p99_baseline_excluded_from_gate(self):
        base = [{"name": "coexist/amrt_solo", "afct_us": 0.0, "p99_us": 0.0},
                {"name": "coexist/mixed", "afct_us": 100.0, "p99_us": 1000.0}]
        test = [{"name": "coexist/amrt_solo", "afct_us": 90.0, "p99_us": 800.0},
                {"name": "coexist/mixed", "afct_us": 101.0, "p99_us": 1010.0}]
        code, out, _ = run_compare(bench_compare.compare_coexist, base, test,
                                   fail_above=1.05)
        # amrt_solo's zero baseline is n/a; mixed's real ratio 1.01 passes.
        self.assertIsNone(code)
        self.assertIn("n/a", out)

    def test_genuine_p99_regression_still_fails(self):
        base = [{"name": "coexist/mixed", "afct_us": 100.0, "p99_us": 1000.0}]
        test = [{"name": "coexist/mixed", "afct_us": 100.0, "p99_us": 1200.0}]
        code, _, msg = run_compare(bench_compare.compare_coexist, base, test,
                                   fail_above=1.1)
        self.assertEqual(code, 1)
        self.assertIn("1.200", msg)

    def test_new_only_mode_without_keys(self):
        base = [{"name": "coexist/mixed", "afct_us": 1.0, "p99_us": 1.0}]
        test = [{"name": "coexist/mixed", "afct_us": 1.0, "p99_us": 1.0},
                {"name": "coexist/extra"}]
        code, out, _ = run_compare(bench_compare.compare_coexist, base, test)
        self.assertIsNone(code)
        self.assertIn("new: coexist/extra", out)


class CompareFanoutTest(unittest.TestCase):
    def test_zero_request_p99_baseline(self):
        base = [{"name": "fanout/amrt", "request_p99_us": 0.0}]
        test = [{"name": "fanout/amrt", "request_p99_us": 450.0}]
        code, out, _ = run_compare(bench_compare.compare_fanout, base, test,
                                   fail_above=1.1)
        self.assertIsNone(code, f"zero baseline must not trip --fail-above:\n{out}")
        self.assertIn("n/a", out)

    def test_missing_request_p99_key(self):
        base = [{"name": "fanout/amrt"}]
        test = [{"name": "fanout/amrt", "request_p99_us": 450.0}]
        code, out, _ = run_compare(bench_compare.compare_fanout, base, test,
                                   fail_above=1.1)
        self.assertIsNone(code)
        self.assertIn("n/a", out)

    def test_genuine_regression_still_fails(self):
        base = [{"name": "fanout/amrt", "request_p99_us": 400.0}]
        test = [{"name": "fanout/amrt", "request_p99_us": 520.0}]
        code, _, msg = run_compare(bench_compare.compare_fanout, base, test,
                                   fail_above=1.1)
        self.assertEqual(code, 1)
        self.assertIn("1.300", msg)


class DisjointReportsTest(unittest.TestCase):
    def test_no_shared_names_is_a_clear_error(self):
        base = [{"name": "a", "real_time": 1.0}]
        test = [{"name": "b", "real_time": 1.0}]
        code, _, msg = run_compare(bench_compare.compare_scale, base, test)
        self.assertEqual(code, 1)
        self.assertIn("share no benchmark names", msg)


def perfbench_run(seed, digest, warmup=False, **metrics):
    rec = {"workload": "websearch_k16", "seed": seed, "traced": False, "warmup": warmup,
           "digest": digest, "errors": []}
    rec.update(metrics)
    return rec


def perfbench_process(seed, digest, wall_s, rss):
    """A perfbench process record list: the warm-up, then two timed runs
    whose wall_s median is `wall_s` and whose RSS is `rss`."""
    return [perfbench_run(seed, digest, warmup=True, wall_s=99.0, peak_rss_mb=99.0),
            perfbench_run(seed, digest, wall_s=wall_s - 0.01, peak_rss_mb=rss),
            perfbench_run(seed + 1, digest + "n", wall_s=wall_s + 0.01, peak_rss_mb=rss)]


METRICS = [("wall_s", "s", True), ("peak_rss_mb", "MB", True)]


def summarize(pairs, printed=None):
    """summarize_perfbench's result and exit message (one is None); what it
    printed is written to `printed` if given."""
    out = printed if printed is not None else io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            return bench_compare.summarize_perfbench(pairs, METRICS), None
    except SystemExit as e:
        return None, str(e.code)


class PerfbenchSummaryTest(unittest.TestCase):
    def test_wins_ties_and_baseline_iqr(self):
        # Baseline wall 1.0, 2.0, 3.0, 4.0, 5.0; the candidate wins pairs 1, 2
        # and 4, ties pair 3 and loses pair 5. Warm-ups are not measured.
        base_wall = [1.0, 2.0, 3.0, 4.0, 5.0]
        test_wall = [0.5, 1.5, 3.0, 3.5, 6.0]
        pairs = [(perfbench_process(1000 * (i + 1), f"d{i}", b, 20.0),
                  perfbench_process(1000 * (i + 1), f"d{i}", t, 19.0))
                 for i, (b, t) in enumerate(zip(base_wall, test_wall))]
        stats, failure = summarize(pairs)
        self.assertIsNone(failure)
        wall = stats["wall_s"]
        self.assertEqual((wall["wins"], wall["ties"], wall["pairs"]), (3, 1, 5))
        self.assertEqual(wall["base"], (2.0, 3.0, 4.0))
        self.assertAlmostEqual(wall["base_iqr"], 2.0)
        self.assertEqual(wall["test"][1], 3.0)
        rss = stats["peak_rss_mb"]
        self.assertEqual((rss["wins"], rss["ties"]), (5, 0))
        self.assertEqual(rss["base_iqr"], 0.0)

    def test_higher_is_better_counts_the_other_way(self):
        st = bench_compare.pair_stats([1.0, 2.0], [2.0, 1.0], lower_is_better=False)
        self.assertEqual((st["wins"], st["ties"]), (1, 0))

    def test_one_pair_has_zero_iqr(self):
        st = bench_compare.pair_stats([2.0], [1.0], lower_is_better=True)
        self.assertEqual(st["base"], (2.0, 2.0, 2.0))
        self.assertEqual((st["wins"], st["base_iqr"]), (1, 0.0))

    def test_digest_mismatch_between_sides_exits(self):
        pairs = [(perfbench_process(1000, "aaaa", 1.0, 20.0),
                  perfbench_process(1000, "bbbb", 1.0, 20.0))]
        stats, failure = summarize(pairs)
        self.assertIsNone(stats)
        self.assertIn("input 1000: digests differ", failure)
        self.assertIn("aaaa (baseline)", failure)
        self.assertIn("bbbb (test)", failure)

    def test_digest_mismatch_still_prints_every_metric(self):
        # A change that moves outcomes on purpose must still be measurable:
        # the table and the per-pair values come before the failing exit.
        pairs = [(perfbench_process(1000, "aaaa", 2.0, 20.0),
                  perfbench_process(1000, "bbbb", 1.0, 19.0))]
        printed = io.StringIO()
        stats, failure = summarize(pairs, printed)
        self.assertIsNone(stats)
        self.assertIn("input 1000: digests differ", failure)
        text = printed.getvalue()
        self.assertRegex(text, r"(?m)^wall_s .*-50\.0%")
        self.assertRegex(text, r"(?m)^peak_rss_mb ")
        self.assertIn("wall_s: 2->1", text)
        self.assertIn("see FAIL below", text)
        self.assertNotIn("digests equal", text)

    def test_digest_mismatch_on_a_later_input_exits(self):
        base = perfbench_process(1000, "aaaa", 1.0, 20.0)
        test = perfbench_process(1000, "aaaa", 1.0, 20.0)
        test[2]["digest"] = "changed"
        _, failure = summarize([(base, test)])
        self.assertIn("input 1001: digests differ", failure)

    def test_run_error_exits(self):
        base = perfbench_process(1000, "aaaa", 1.0, 20.0)
        test = perfbench_process(1000, "aaaa", 1.0, 20.0)
        test[1]["errors"] = ["3 flows incomplete"]
        _, failure = summarize([(base, test)])
        self.assertIn("test input 1000: 3 flows incomplete", failure)

    def test_metrics_follow_benchmark_json(self):
        names = [name for name, _, _ in bench_compare.end_to_end_metrics()]
        self.assertIn("peak_rss_mb", names)
        self.assertIn("wall_s", names)


if __name__ == "__main__":
    unittest.main(verbosity=2)
