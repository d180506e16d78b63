from itertools import combinations

import pytest

from kneser_colorings.errors import SearchExhaustedError
from kneser_colorings.exact_cover import exact_cover


def test_knuth_example():
    rows = {
        "A": [1, 4, 7], "B": [1, 4], "C": [4, 5, 7],
        "D": [3, 5, 6], "E": [2, 3, 6, 7], "F": [2, 7],
    }
    sol = exact_cover(range(1, 8), rows)
    assert sorted(sol) == ["B", "D", "F"]


def test_budget_exhausted_is_typed():
    rows = {"A": [1, 4, 7], "B": [1, 4], "C": [4, 5, 7], "D": [3, 5, 6], "F": [2, 7]}
    with pytest.raises(SearchExhaustedError, match="2 nodes, over its budget of 1") as info:
        exact_cover(range(1, 8), rows, max_nodes=1)
    assert (info.value.nodes, info.value.budget) == (2, 1)


def test_unsolvable_returns_none():
    assert exact_cover([1, 2, 3], {"A": [1, 2], "B": [2, 3]}) is None


def test_deterministic():
    rows = {i: [i % 4, 4 + i % 3, 7 + i % 2] for i in range(20)}
    cols = set()
    for cs in rows.values():
        cols.update(cs)
    first = exact_cover(cols, rows)
    for _ in range(3):
        assert exact_cover(cols, rows) == first


def _covers(columns, rows, chosen):
    want = set(columns)
    hits = [c for r in chosen for c in set(rows[r]) if c in want]
    return len(set(chosen)) == len(chosen) and sorted(hits) == sorted(want)


def test_matches_brute_force():
    """A cover is returned exactly when some subset of the rows is one."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @hypothesis.given(ncols=st.integers(0, 8),
                      row_cols=st.lists(st.lists(st.integers(0, 9), max_size=4), max_size=12))
    def case(ncols, row_cols):
        columns = range(ncols)  # row entries >= ncols are not columns: ignored
        rows = dict(enumerate(row_cols))
        solvable = any(_covers(columns, rows, chosen) for size in range(len(rows) + 1)
                       for chosen in combinations(rows, size))
        sol = exact_cover(columns, rows)
        if solvable:
            assert sol is not None and _covers(columns, rows, sol)
        else:
            assert sol is None

    case()
