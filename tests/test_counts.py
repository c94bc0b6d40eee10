"""Published-value count formulas and the reference CSV."""

import pytest

from mss.counts import counts_csv, public_value_counts

GOLDEN_CSV = """t,k,n,hd,lh,sm,pe,os12,os34
3,4,7,28,16,25,23,48,53
6,7,10,70,28,43,35,81,110
8,9,12,108,36,55,43,103,158
11,12,14,168,36,61,53,123,232
12,13,14,182,26,53,55,119,250
"""


class TestCountFormulas:
    def test_reference_tuple(self):
        counts = public_value_counts(3, 4, 7)
        assert counts == {
            "hd": 28,
            "lh": 16,
            "sm": 25,
            "pe": 23,
            "os12": 48,
            "os34": 53,
        }

    def test_second_tuple_os12(self):
        assert public_value_counts(6, 7, 10)["os12"] == 7 * 10 + 11 == 81

    def test_degenerate_t_equals_n(self):
        assert public_value_counts(5, 3, 5)["lh"] == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            public_value_counts(8, 3, 7)
        with pytest.raises(ValueError):
            public_value_counts(0, 3, 7)
        with pytest.raises(ValueError):
            public_value_counts(3, 0, 7)

    def test_reference_csv_matches_golden(self):
        assert counts_csv() == GOLDEN_CSV
