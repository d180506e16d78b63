from itertools import combinations

import pytest

from kneser_colorings.errors import SearchExhaustedError
from kneser_colorings.exact_cover import exact_cover


def _cols(mask):
    return [c for c in range(mask.bit_length()) if mask >> c & 1]


def test_knuth_example():
    # Knuth's rows A..F over columns 1..7, renumbered 0..6
    rows = [[0, 3, 6], [0, 3], [3, 4, 6], [2, 4, 5], [1, 2, 5, 6], [1, 6]]
    assert sorted(exact_cover(7, rows)) == [1, 3, 5]  # B, D, F


def test_budget_exhausted_is_typed():
    rows = [[0, 3, 6], [0, 3], [3, 4, 6], [2, 4, 5], [1, 6]]
    with pytest.raises(SearchExhaustedError, match="2 nodes, over its budget of 1") as info:
        exact_cover(7, rows, max_nodes=1)
    assert (info.value.nodes, info.value.budget) == (2, 1)


def test_unsolvable_returns_none():
    assert exact_cover(3, [[0, 1], [1, 2]]) is None


def test_deterministic():
    # every transversal of three column triples: many covers, one answer
    rows = [(i % 3, 3 + i // 3 % 3, 6 + i // 9) for i in range(27)]
    first = exact_cover(9, rows)
    assert first is not None
    for _ in range(3):
        assert exact_cover(9, rows) == first


def test_row_columns_may_come_in_any_order():
    rows = [[6, 3, 0], [3, 0], [6, 4, 3], [5, 4, 2], [6, 5, 2, 1], [6, 1]]
    assert sorted(exact_cover(7, rows)) == [1, 3, 5]


def _covers(ncols, rows, chosen):
    union = 0
    for i in chosen:
        if union & rows[i]:
            return False
        union |= rows[i]
    return len(set(chosen)) == len(chosen) and union == (1 << ncols) - 1


def test_matches_brute_force():
    """A cover is returned exactly when some subset of the rows is one; each
    drawn int is a row's column set, given to exact_cover as its set bits."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @hypothesis.given(case=st.integers(0, 8).flatmap(lambda ncols: st.tuples(
        st.just(ncols), st.lists(st.integers(0, (1 << ncols) - 1), max_size=12))))
    def check(case):
        ncols, rows = case
        solvable = any(_covers(ncols, rows, chosen) for size in range(len(rows) + 1)
                       for chosen in combinations(range(len(rows)), size))
        sol = exact_cover(ncols, [_cols(row) for row in rows])
        if solvable:
            assert sol is not None and _covers(ncols, rows, sol)
        else:
            assert sol is None

    check()
