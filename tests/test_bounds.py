from fractions import Fraction
from math import comb

import pytest

from kneser_colorings.bounds import (alpha_upper_kn2, b_chromatic_lower, bounds_csv,
                                     bounds_table, floor_half_plus_sqrt,
                                     improved_psi_bound, max_colors_for_pairs,
                                     odd_graph_psi_lower, psi_lower_kn2,
                                     psi_upper_general, psi_upper_kn2)
from kneser_colorings.errors import ParameterDomainError


def test_floor_half_plus_sqrt_exhaustive():
    for n_val in range(0, 3000):
        r = floor_half_plus_sqrt(n_val)
        assert r * (r - 1) <= n_val < (r + 1) * r


def test_alpha_upper_examples():
    assert alpha_upper_kn2(7) == 9
    assert alpha_upper_kn2(3) == 1
    assert alpha_upper_kn2(20) == 70
    with pytest.raises(ParameterDomainError):
        alpha_upper_kn2(1)


def test_psi_upper_kn2_examples():
    assert psi_upper_kn2(7) == 12
    assert psi_upper_kn2(20) == 100
    assert psi_upper_kn2(8) == 16
    with pytest.raises(ParameterDomainError):
        psi_upper_kn2(6)


def test_psi_upper_general_examples():
    assert psi_upper_general(4, 2) == 3.0
    assert psi_upper_general(5, 2) == 6.0
    assert psi_upper_general(6, 3) == 5.0


def test_improved_bound_examples():
    assert improved_psi_bound(5, 2) == 5
    assert improved_psi_bound(4, 2) == 3


def test_improved_bound_matches_direct_scan():
    for n in range(2, 19):
        for k in range(1, n // 2 + 1):
            total, dk = comb(n, k), comb(n - k, k)
            best = Fraction(0)
            for x in range(1, total + 1):
                f = Fraction(total, x)
                rest = n - k * x
                g = Fraction(1 + x * dk - (x - 1) * (comb(rest, k) if rest >= k else 0))
                best = max(best, min(f, g))
                if f <= best:
                    break
            assert improved_psi_bound(n, k) == int(best), (n, k)


def test_improved_at_most_eq1_plus_one():
    for n in range(2, 31):
        for k in range(1, n // 2 + 1):
            eq1 = floor_half_plus_sqrt(comb(n, k) * comb(n - k, k))
            assert improved_psi_bound(n, k) <= eq1 + 1, (n, k)


def test_b_chromatic_examples():
    assert b_chromatic_lower(6, 3) == 2
    assert b_chromatic_lower(8, 3) == 8
    assert b_chromatic_lower(10, 3) == 20
    with pytest.raises(ParameterDomainError):
        b_chromatic_lower(10, 2)
    with pytest.raises(ParameterDomainError):
        b_chromatic_lower(5, 3)


def test_odd_graph_examples():
    assert odd_graph_psi_lower(2) == 3
    assert odd_graph_psi_lower(3) == 5
    assert odd_graph_psi_lower(4) == 8
    with pytest.raises(ParameterDomainError):
        odd_graph_psi_lower(1)


def test_matching_value():
    assert max_colors_for_pairs(3) == 3
    assert max_colors_for_pairs(10) == 5
    assert max_colors_for_pairs(1) == 2


def test_table_spec_rows():
    rows = {(r.n, r.k): r for r in bounds_table(10, 3)}
    r10 = rows[(10, 2)]
    assert (r10.chi, r10.alpha_upper, r10.psi_lower, r10.psi_upper) == (8, 18, 22, 25)
    r63 = rows[(6, 3)]
    assert r63.chi == 2 and r63.b_chromatic_lower == 2
    r52 = rows[(5, 2)]
    assert r52.alpha_upper == 5 and r52.psi_upper_improved == 5 and r52.psi_upper == 5


def test_table_internal_consistency():
    for r in bounds_table(40, 3):
        if r.alpha_lower is not None and r.alpha_upper is not None:
            assert r.alpha_lower <= r.alpha_upper, r
        if r.psi_lower is not None and r.psi_upper is not None:
            assert r.psi_lower <= r.psi_upper, r
        if r.n >= 7 and r.k == 2:
            assert alpha_upper_kn2(r.n) <= psi_upper_kn2(r.n)
            assert psi_lower_kn2(r.n) <= psi_upper_kn2(r.n)


def test_alpha_lower_is_at_least_chi():
    for r in bounds_table(60, 30):
        assert r.alpha_lower is None or r.alpha_lower >= r.chi, r
    odd = {(r.n, r.k): r for r in bounds_table(9, 4)}[(9, 4)]
    assert (odd.chi, odd.alpha_lower, odd.b_chromatic_lower) == (3, 3, 2)
    assert "alpha >= chi" in odd.notes.split(";")


def test_csv_output():
    rows = bounds_table(10, 2)
    text = bounds_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0].startswith("n,k,chi,")
    assert len(lines) == 1 + 9  # header + n = 2..10


def test_table_cap():
    with pytest.raises(ParameterDomainError):
        bounds_table(61, 2)


@pytest.mark.parametrize("n_max, k_max", [(1, 2), (-5, 2), (5, 1), (5, 0), (5, -3)])
def test_table_refuses_ranges_below_two(n_max, k_max):
    with pytest.raises(ParameterDomainError):
        bounds_table(n_max, k_max)


def test_oversized_k_max_adds_no_rows():
    # k >= 3 rows need 2k <= n, so k_max beyond n_max // 2 changes nothing
    assert bounds_table(4, 20_000_000) == bounds_table(4, 2)
    assert bounds_table(60, 10**9) == bounds_table(60, 30)
    assert max(r.k for r in bounds_table(60, 10**9)) == 30
