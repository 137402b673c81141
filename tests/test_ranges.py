"""RangeSet: unit and property-based tests."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.transport.ranges import RangeSet


class TestAdd:
    def test_single_range(self):
        rs = RangeSet()
        rs.add(5, 10)
        assert list(rs) == [(5, 10)]

    def test_merge_adjacent(self):
        rs = RangeSet()
        rs.add(0, 10)
        rs.add(10, 20)
        assert list(rs) == [(0, 20)]

    def test_merge_overlapping(self):
        rs = RangeSet()
        rs.add(0, 10)
        rs.add(5, 15)
        assert list(rs) == [(0, 15)]

    def test_fill_gap(self):
        rs = RangeSet([(0, 10), (20, 30)])
        rs.add(10, 20)
        assert list(rs) == [(0, 30)]

    def test_disjoint_stay_sorted(self):
        rs = RangeSet()
        rs.add(20, 30)
        rs.add(0, 5)
        rs.add(10, 15)
        assert list(rs) == [(0, 5), (10, 15), (20, 30)]

    def test_empty_range_ignored(self):
        rs = RangeSet()
        rs.add(5, 5)
        rs.add(7, 3)
        assert not rs

    def test_superset_swallows(self):
        rs = RangeSet([(2, 4), (6, 8)])
        rs.add(0, 10)
        assert list(rs) == [(0, 10)]


class TestRemove:
    def test_remove_middle_splits(self):
        rs = RangeSet([(0, 10)])
        rs.remove(3, 7)
        assert list(rs) == [(0, 3), (7, 10)]

    def test_remove_prefix(self):
        rs = RangeSet([(0, 10)])
        rs.remove(0, 4)
        assert list(rs) == [(4, 10)]

    def test_remove_across_ranges(self):
        rs = RangeSet([(0, 5), (10, 15), (20, 25)])
        rs.remove(3, 22)
        assert list(rs) == [(0, 3), (22, 25)]

    def test_remove_nothing(self):
        rs = RangeSet([(5, 10)])
        rs.remove(0, 5)
        assert list(rs) == [(5, 10)]

    def test_remove_from_empty(self):
        rs = RangeSet()
        rs.remove(0, 10)
        assert not rs


class TestQueries:
    def test_contains(self):
        rs = RangeSet([(0, 10), (20, 30)])
        assert rs.contains(0, 10)
        assert rs.contains(22, 28)
        assert not rs.contains(5, 25)
        assert not rs.contains(10, 20)

    def test_contains_point(self):
        rs = RangeSet([(5, 6)])
        assert rs.contains_point(5)
        assert not rs.contains_point(6)

    def test_missing_within(self):
        rs = RangeSet([(0, 5), (10, 15)])
        assert rs.missing_within(0, 20) == [(5, 10), (15, 20)]

    def test_missing_within_fully_covered(self):
        rs = RangeSet([(0, 20)])
        assert rs.missing_within(5, 15) == []

    def test_missing_within_empty_set(self):
        rs = RangeSet()
        assert rs.missing_within(3, 8) == [(3, 8)]

    def test_first_gap_after(self):
        rs = RangeSet([(0, 10), (15, 20)])
        assert rs.first_gap_after(0) == 10
        assert rs.first_gap_after(12) == 12
        assert rs.first_gap_after(16) == 20

    def test_covered_bytes(self):
        rs = RangeSet([(0, 5), (10, 12)])
        assert rs.covered_bytes() == 7

    def test_first(self):
        rs = RangeSet([(10, 15), (20, 25)])
        assert rs.first() == (10, 15)
        rs.remove(10, 15)
        assert rs.first() == (20, 25)
        assert RangeSet().first() is None

    def test_highest(self):
        assert RangeSet().highest() == 0
        assert RangeSet([(3, 9)]).highest() == 9

    def test_newest_first(self):
        rs = RangeSet([(0, 5), (10, 15), (20, 25)])
        assert rs.newest_first(2) == [(20, 25), (10, 15)]

    def test_equality(self):
        assert RangeSet([(0, 5)]) == RangeSet([(0, 3), (3, 5)])
        assert RangeSet([(0, 5)]) != RangeSet([(0, 6)])


ranges_strategy = st.lists(
    st.tuples(st.integers(0, 200), st.integers(1, 40)).map(
        lambda t: (t[0], t[0] + t[1])
    ),
    max_size=30,
)


class TestProperties:
    @given(ranges_strategy)
    @settings(max_examples=200)
    def test_invariants_after_adds(self, ranges):
        rs = RangeSet()
        for start, end in ranges:
            rs.add(start, end)
        items = list(rs)
        # Sorted, non-overlapping, non-adjacent, non-empty.
        for (s1, e1), (s2, e2) in zip(items, items[1:]):
            assert e1 < s2
        for s, e in items:
            assert s < e

    @given(ranges_strategy)
    @settings(max_examples=200)
    def test_matches_reference_set(self, ranges):
        rs = RangeSet()
        reference = set()
        for start, end in ranges:
            rs.add(start, end)
            reference.update(range(start, end))
        assert rs.covered_bytes() == len(reference)
        for point in range(0, 250):
            assert rs.contains_point(point) == (point in reference)

    @given(ranges_strategy, ranges_strategy)
    @settings(max_examples=100)
    def test_remove_matches_reference(self, adds, removes):
        rs = RangeSet()
        reference = set()
        for start, end in adds:
            rs.add(start, end)
            reference.update(range(start, end))
        for start, end in removes:
            rs.remove(start, end)
            reference.difference_update(range(start, end))
        assert rs.covered_bytes() == len(reference)
        for point in range(0, 250):
            assert rs.contains_point(point) == (point in reference)

    @given(ranges_strategy, st.integers(0, 250), st.integers(0, 250))
    @settings(max_examples=100)
    def test_missing_within_complements_coverage(self, adds, a, b):
        start, end = min(a, b), max(a, b)
        rs = RangeSet()
        for s, e in adds:
            rs.add(s, e)
        gaps = rs.missing_within(start, end)
        covered = set()
        for s, e in rs:
            covered.update(range(s, e))
        gap_points = set()
        for s, e in gaps:
            gap_points.update(range(s, e))
        expected = set(range(start, end)) - covered
        assert gap_points == expected

    @given(ranges_strategy)
    @settings(max_examples=200)
    def test_newest_first_matches_reversed_list(self, adds):
        rs = RangeSet(adds)
        n = len(rs)
        for limit in (0, 1, 3, n - 1, n, n + 1, 256):
            # The reference is the whole set, reversed, then cut.
            assert rs.newest_first(limit) == list(rs)[::-1][:limit]
