"""Tests for the benchmark's summary statistics.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import math
import statistics
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402


class Percentiles(unittest.TestCase):
    def test_median_odd_even(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)
        with self.assertRaises(ValueError):
            stats.median([])

    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(stats.percentile(values, 0.5), 50)
        self.assertEqual(stats.percentile(values, 0.99), 99)
        self.assertEqual(stats.percentile(values, 1.0), 100)
        self.assertEqual(stats.percentile([7], 0.5), 7)
        with self.assertRaises(ValueError):
            stats.percentile(values, 0)

    def test_p99_needs_a_thousand_samples(self):
        self.assertFalse(stats.supports(999, 0.99))
        self.assertTrue(stats.supports(1000, 0.99))
        self.assertTrue(stats.supports(20, 0.5))
        self.assertFalse(stats.supports(19, 0.5))

    def test_tail_leaves_ten_samples_beyond(self):
        for n in (11, 57, 100, 1000, 4321):
            values = list(range(n))
            level, value = stats.tail(values)
            beyond = sum(1 for v in values if v > value)
            self.assertEqual(beyond, 10, n)
            self.assertAlmostEqual(level, (n - 10) / n)
            # The next rank up would leave fewer than ten beyond.
            self.assertFalse(stats.supports(n, level + 1.0 / n))

    def test_tail_needs_more_than_ten_samples(self):
        self.assertEqual(stats.tail(list(range(10))), (None, None))
        self.assertIsNone(stats.tail_level(10))

    def test_failures_land_in_the_tail(self):
        latencies = [1.0] * 990 + [math.inf] * 10
        self.assertEqual(stats.percentile(latencies, 0.99), 1.0)
        latencies[0:1] = [math.inf]
        self.assertEqual(stats.percentile(latencies, 0.99), math.inf)

    def test_quartile_spread_matches_statistics(self):
        values = [9.8, 10.0, 10.1, 10.4, 9.9, 10.2, 10.0, 9.7, 10.3, 10.1]
        q1, med, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(stats.quartile_spread(values), (q3 - q1) / med)


if __name__ == "__main__":
    unittest.main()
