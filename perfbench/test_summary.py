"""Tests of the benchmark's summary math.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import math
import unittest

import summary


class PercentileRule(unittest.TestCase):
    def test_nearest_rank_counts_samples_beyond(self):
        samples = list(range(1, 1001))  # 1..1000
        value, n, beyond = summary.nearest_rank(samples, 0.99)
        self.assertEqual((value, n, beyond), (990, 1000, 10))
        self.assertEqual(summary.nearest_rank(samples, 0.5)[0], 500)
        self.assertEqual(summary.nearest_rank([7.0], 0.99), (7.0, 1, 0))

    def test_order_does_not_matter(self):
        samples = [5.0, 1.0, 4.0, 2.0, 3.0] * 300
        self.assertEqual(summary.tail_percentile(samples, 0.99), 5.0)

    def test_p99_needs_ten_samples_beyond(self):
        self.assertEqual(summary.tail_percentile(range(1, 1001), 0.99), 990)
        with self.assertRaises(summary.SummaryError):
            summary.tail_percentile(range(1, 1000), 0.99)  # 9 beyond
        # A lower percentile is supported by fewer samples.
        self.assertEqual(summary.tail_percentile(range(1, 101), 0.9), 90)

    def test_windowed_tail_takes_the_median_window(self):
        quiet = [1.0] * 980 + [2.0] * 20
        burst = [1.0] * 900 + [50.0] * 100
        # Fewer than two windows of 1000: the plain p99.
        self.assertEqual(summary.windowed_tail(quiet, 0.99), 2.0)
        self.assertEqual(summary.windowed_tail(quiet[:500] + burst, 0.99),
                         50.0)
        # Two windows: the median is their mean.
        self.assertEqual(summary.windowed_tail(quiet + burst, 0.99), 26.0)
        # One burst window out of three does not set the tail.
        self.assertEqual(
            summary.windowed_tail(quiet + burst + quiet, 0.99), 2.0)
        with self.assertRaises(summary.SummaryError):
            summary.windowed_tail([1.0] * 999, 0.99)

    def test_empty_and_bad_percentiles_are_refused(self):
        with self.assertRaises(summary.SummaryError):
            summary.nearest_rank([], 0.5)
        with self.assertRaises(summary.SummaryError):
            summary.nearest_rank([1.0], 0.0)
        with self.assertRaises(summary.SummaryError):
            summary.median([])


class FailedFraction(unittest.TestCase):
    def test_every_unanswered_kind_counts(self):
        self.assertEqual(summary.failed_frac(100), 0.0)
        self.assertEqual(summary.failed_frac(100, skipped=6), 0.06)
        # Shed and rejected requests miss every latency limit: they count
        # as failed exactly like errors, however loose the limit.
        self.assertEqual(
            summary.failed_frac(200, skipped=2, shed=3, rejected=4, errors=1),
            0.05)

    def test_inconsistent_accounting_is_refused(self):
        with self.assertRaises(summary.SummaryError):
            summary.failed_frac(0)
        with self.assertRaises(summary.SummaryError):
            summary.failed_frac(10, shed=6, rejected=5)


class Shares(unittest.TestCase):
    def test_shares_sum_to_one_with_unattributed(self):
        out = summary.shares({"train.share": 6.0, "eval.share": 2.0,
                              "selection.share": 1.0}, total=10.0)
        self.assertAlmostEqual(out["fl.unattributed_share"], 0.1)
        self.assertAlmostEqual(math.fsum(out.values()), 1.0)
        self.assertEqual(out["train.share"], 0.6)

    def test_unattributed_goes_negative_when_spans_exceed_total(self):
        out = summary.shares({"train.share": 11.0}, total=10.0)
        self.assertAlmostEqual(out["fl.unattributed_share"], -0.1)
        self.assertAlmostEqual(math.fsum(out.values()), 1.0)

    def test_non_positive_total_is_refused(self):
        with self.assertRaises(summary.SummaryError):
            summary.shares({"train.share": 1.0}, total=0.0)


class PairedOverhead(unittest.TestCase):
    def test_median_of_ratios(self):
        self.assertAlmostEqual(
            summary.paired_overhead([1.02, 1.04, 1.03]), 0.03)

    def test_one_slow_half_cannot_set_the_sign(self):
        # One "off" half ran in a slow phase: a ratio of sums would read
        # the registry as a 16% speed-up; the median of ratios does not.
        on = [1.0, 1.0, 1.0, 1.0, 1.0]
        off = [0.99, 0.98, 2.0, 0.99, 0.98]
        ratios = [a / b for a, b in zip(on, off)]
        self.assertLess(sum(on) / sum(off) - 1.0, 0.0)
        self.assertAlmostEqual(summary.paired_overhead(ratios), 1 / 0.99 - 1)

    def test_no_pairs_is_refused(self):
        with self.assertRaises(summary.SummaryError):
            summary.paired_overhead([])


def raw_record(n=1000):
    """A minimal untraced record with n answered queries."""
    return {
        "scalars": {"answered": n, "det_offered": n + 50,
                    "det_bytes": 500.0 * n, "peak_rss_mb": 12.5},
        "samples": {"setup_s": [0.3, 0.1, 0.2],
                    "query_s": [0.001 * (i + 1) for i in range(n)],
                    "loss": [2.0] * n, "sim_s": [0.25] * n,
                    "vt_latency_s": [0.1 * (i % 10) for i in range(n)]},
    }


class EndToEnd(unittest.TestCase):
    def test_metrics_from_a_record(self):
        m = summary.end_to_end(raw_record())
        self.assertEqual(m["setup_s"], 0.2)
        self.assertAlmostEqual(m["query_p50_ms"], 500.5)
        self.assertAlmostEqual(m["query_p99_ms"], 990.0)
        self.assertAlmostEqual(m["answered_frac"], 1000 / 1050)
        self.assertEqual(m["answer_mse"], 2.0)
        self.assertEqual(m["bytes_per_query"], 500.0)
        self.assertEqual(m["vt_p99_s"], 0.9)

    def test_too_few_samples_for_p99_fails(self):
        with self.assertRaises(summary.SummaryError):
            summary.end_to_end(raw_record(n=500))


if __name__ == "__main__":
    unittest.main()
