"""Closed-form bounds on chi, alpha and psi for Kneser graphs.

Everything is exact integer arithmetic; the square-root bounds are floored
through max{r : r(r-1) <= N} so no float ever decides a boundary case.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from math import comb, isqrt

from .errors import ParameterDomainError
from .kneser import lovasz_chromatic


def floor_half_plus_sqrt(n_under_root: int) -> int:
    """floor(1/2 + sqrt(1/4 + N)) = max{r >= 1 : r(r-1) <= N}, exactly."""
    # r(r-1) <= N  <=>  (2r-1)^2 <= 4N+1  <=>  2r-1 <= isqrt(4N+1)
    return (1 + isqrt(1 + 4 * n_under_root)) // 2


def max_colors_for_pairs(m: int) -> int:
    """Largest r with C(r,2) <= m; the matching achromatic value for m edges."""
    return floor_half_plus_sqrt(2 * m)


def alpha_upper_kn2(n: int) -> int:
    """Exact alpha(K(n,2)): floor(C(n+1,2)/3), except 1 at n = 3."""
    if n < 2:
        raise ParameterDomainError(f"alpha(K(n,2)) needs n >= 2, got {n}")
    if n == 3:
        return 1
    return comb(n + 1, 2) // 3


def psi_upper_kn2(n: int) -> int:
    """floor((C(n,2) + floor(n/2)) / 2), defined for n >= 7."""
    if n < 7:
        raise ParameterDomainError(
            f"the psi upper bound formula applies for n >= 7 (psi = alpha below); got {n}")
    return (comb(n, 2) + n // 2) // 2


def psi_lower_kn2(n: int) -> int:
    if n < 7:
        raise ParameterDomainError(f"the psi lower bound formula applies for n >= 7; got {n}")
    return comb(n, 2) // 2


def psi_upper_general(n: int, k: int) -> float:
    """1/2 + sqrt(1/4 + C(n,k) C(n-k,k)); real-valued bound for psi(K(n,k))."""
    if k < 1 or 2 * k > n:
        raise ParameterDomainError(f"need 1 <= k <= n/2, got ({n},{k})")
    return 0.5 + (0.25 + comb(n, k) * comb(n - k, k)) ** 0.5


def improved_psi_bound(n: int, k: int) -> int:
    """floor(max_x min(f(x), g(x))) over integer x in 1..C(n,k), with
    f(x) = C(n,k)/x and g(x) = 1 + x C(n-k,k) - (x-1) C(n-kx,k) (last term 0
    once n-kx < k).

    f is strictly decreasing and g non-decreasing, so the maximum sits at
    the crossing; found by binary search rather than a scan (x can reach
    C(60,30) in the bounds table).
    """
    if k < 1 or 2 * k > n:
        raise ParameterDomainError(f"need 1 <= k <= n/2, got ({n},{k})")
    total = comb(n, k)
    dk = comb(n - k, k)

    def g(x):
        rest = n - k * x
        tail = comb(rest, k) if rest >= k else 0
        return 1 + x * dk - (x - 1) * tail

    # f(x) >= g(x) is total >= x g(x), and floor(min(f, g)) = min(total // x, g(x))
    lo, hi = 1, total  # find the last x with f(x) >= g(x), if any
    if total < g(1):
        xstar = 0
    else:
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if total >= mid * g(mid):
                lo = mid
            else:
                hi = mid - 1
        xstar = lo
    return max(min(total // x, g(x)) for x in (xstar, xstar + 1) if 1 <= x <= total)


def b_chromatic_lower(n: int, k: int) -> int:
    """2 C(floor(n/2), k): a lower bound for the b-chromatic number, hence alpha."""
    if k < 3 or n < 2 * k:
        raise ParameterDomainError(f"needs k >= 3 and n >= 2k, got ({n},{k})")
    return 2 * comb(n // 2, k)


def odd_graph_psi_lower(k: int) -> int:
    """floor(1/2 + sqrt(1/4 + C(2k,k))): lower bound for psi(K(2k+1,k))."""
    if k < 2:
        raise ParameterDomainError(f"odd graph bound needs k >= 2, got {k}")
    return floor_half_plus_sqrt(comb(2 * k, k))


@dataclass
class BoundsRow:
    n: int
    k: int
    chi: int
    alpha_lower: int | None
    alpha_upper: int | None
    psi_lower: int | None
    psi_upper: int | None
    psi_upper_improved: int | None
    b_chromatic_lower: int | None
    notes: str

    FIELDS = ("n", "k", "chi", "alpha_lower", "alpha_upper", "psi_lower",
              "psi_upper", "psi_upper_improved", "b_chromatic_lower", "notes")

    def as_tuple(self):
        return tuple(getattr(self, f) for f in self.FIELDS)


def bounds_table(n_max: int, k_max: int) -> list:
    """One row per applicable (n,k) with 2 <= n <= n_max, 2 <= k <= k_max.

    k = 2 rows cover all n >= 2 (the edgeless K(2,2) and K(3,2) have
    well-defined values too); k >= 3 rows require 2k <= n.
    """
    if n_max > 60:
        raise ParameterDomainError("bounds table capped at n_max <= 60")
    if n_max < 2 or k_max < 2:
        raise ParameterDomainError(f"the bounds table needs n_max >= 2 and k_max >= 2, "
                                   f"got n_max={n_max}, k_max={k_max}")
    rows = []
    for n in range(2, n_max + 1):
        for k in range(2, min(k_max, max(2, n // 2)) + 1):
            notes = []
            chi = lovasz_chromatic(n, k) if 2 * k <= n + 1 else 1
            alpha_lo = alpha_hi = psi_lo = psi_hi = None
            if k == 2:
                alpha_lo = alpha_hi = alpha_upper_kn2(n)
                notes.append("alpha exact")
                if n >= 7:
                    psi_lo = psi_lower_kn2(n)
                    psi_hi = psi_upper_kn2(n)
                else:
                    psi_lo = psi_hi = alpha_hi
                    notes.append("psi = alpha (n <= 6)")
            else:
                if n == 2 * k:
                    alpha_lo = alpha_hi = psi_lo = psi_hi = \
                        max_colors_for_pairs(comb(2 * k, k) // 2)
                    notes.append("perfect matching graph: alpha = psi exact")
                elif n == 2 * k + 1:
                    psi_lo = odd_graph_psi_lower(k)
                    notes.append("odd graph psi lower")
            imp = None
            psi_hi2 = psi_hi
            if 2 * k <= n:
                imp = improved_psi_bound(n, k)
                if psi_hi is None or imp < psi_hi:
                    notes.append("improved bound")
                psi_hi2 = imp if psi_hi is None else min(psi_hi, imp)
            bch = None
            if k >= 3 and n >= 2 * k:
                bch = b_chromatic_lower(n, k)
                lower = max(bch, chi)  # alpha >= chi
                if alpha_lo is None or lower > alpha_lo:
                    alpha_lo = lower
                    notes.append("b-chromatic lower" if bch == lower else "alpha >= chi")
            rows.append(BoundsRow(n=n, k=k, chi=chi, alpha_lower=alpha_lo,
                                  alpha_upper=alpha_hi, psi_lower=psi_lo,
                                  psi_upper=psi_hi2, psi_upper_improved=imp,
                                  b_chromatic_lower=bch, notes=";".join(notes)))
    return rows


def bounds_csv(rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(BoundsRow.FIELDS)
    for r in rows:
        w.writerow(["" if x is None else x for x in r.as_tuple()])
    return buf.getvalue()
