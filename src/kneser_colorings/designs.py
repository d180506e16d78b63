"""Block designs feeding the coloring constructions.

Steiner triple systems come from the Bose (n = 3 mod 6) and Skolem
(n = 1 mod 6) quasigroup constructions; a Bose system's parallel class is
its transversal blocks, no search needed.  The same quasigroup blocks give
the maximum triangle packing of K_v, v = 5 (mod 6), whose leave is a
4-cycle (the 6m+5 construction).  Kirkman systems KTS(n) take one of three
routes: n = 9 (mod 18) triples KTS(n/3), n = 15 is the orbit of one PG(3,2)
spread under a collineation of order 7, and every other n up to 129 runs
one rotational starter search (so every n = 9 (mod 18) up to 387 is built;
the rest is refused).  That search is the only exact cover left in the
package; each row is three of its 3m pair orbits (columns 0..3m-1) and
three points (x, level) at 3m + level*m + x.  The (21,5,1)-design is PG(2,4).
1-factorizations develop a starter of Z_{2t-1}: the circle method's.  Where
that one is not 4-cycle-free (exactly the orders with 3 | 2t-1), K_{2t}
for odd t is doubled from two copies of K_t, and only the orders 16, 28
and 40 develop a 4-cycle-free starter found by one deterministic search.
A KTS and a 1-factorization are both a Resolution: the design and its
parallel classes as sorted tuples of blocks (a factor is a class of pairs),
certified by the same resolution check.

The four constructors (construct_sts, construct_kts, construct_design_21_5_1,
c4_free_one_factorization) keep what they build for the life of the
process, unlike build_kneser's graphs, because the constructions in one
process reuse them: in the achromatic sweep n = 2..180, 60 Steiner systems
serve 176 requests (STS(57) serves n = 56, 58, 59 and 61, STS(61) serves
n = 60 and 63), STS(21) serves both D_V routes (n = 20 and 21), and KTS(21)
is tripled into KTS(63).  They hold 8.0 MB at the end of that sweep.
"""
from __future__ import annotations

from collections import namedtuple
from functools import cache, reduce
from itertools import combinations, product
from math import comb
from operator import xor
from types import SimpleNamespace

from .errors import CertificateError, ParameterDomainError, SearchExhaustedError
from .exact_cover import exact_cover


class Design(namedtuple("Design", "n blocks k r lam")):
    """A 2-(n, b, k, r, lambda) design on points 1..n."""
    __slots__ = ()

    @property
    def b(self) -> int:
        return len(self.blocks)

    def params(self):
        return (self.n, self.b, self.k, self.r, self.lam)


# a resolvable design and its parallel classes, each a sorted tuple of blocks; a
# 1-factorization of K_2t is the resolution of the 2-(2t, 2, 1) design, and its
# classes are the factors
Resolution = namedtuple("Resolution", "design classes")


class DesignReport(SimpleNamespace):
    """Each axiom holds until the audit records a failure against it."""

    def __init__(self, params):
        super().__init__(params=params, block_sizes_ok=True, replication_ok=True,
                         pair_coverage_ok=True, equations_ok=True, failures=[])

    @property
    def passed(self) -> bool:
        return (self.block_sizes_ok and self.replication_ok
                and self.pair_coverage_ok and self.equations_ok)

    def as_dict(self):
        return {"params": list(self.params), "block_sizes_ok": self.block_sizes_ok,
                "replication_ok": self.replication_ok,
                "pair_coverage_ok": self.pair_coverage_ok,
                "equations_ok": self.equations_ok, "failures": self.failures,
                "passed": self.passed}


def verify_design(d: Design) -> DesignReport:
    """Audit the three design axioms and the two parameter equations.

    A point in no block is reported alone, before the per-point and per-pair
    audits, so a document's n costs no more than its blocks do.  The pairs
    are counted in a flat list by pair rank when there are no more pairs of
    1..n than block pairs, and in a dict of the block pairs otherwise.
    """
    rep = DesignReport(d.params())
    for blk in d.blocks:
        if len(blk) != d.k or len(set(blk)) != d.k:
            rep.block_sizes_ok = False
            rep.failures.append(f"block {blk} does not have {d.k} distinct points")
    covered = {p for blk in d.blocks for p in blk}
    missing = next((p for p in range(1, d.n + 1) if p not in covered), None)
    if missing is not None:
        rep.replication_ok = False
        rep.failures.append(f"point {missing} lies in no block")
        return rep
    counts = {p: 0 for p in range(1, d.n + 1)}
    for blk in d.blocks:
        for p in blk:
            if p not in counts:
                rep.block_sizes_ok = False
                rep.failures.append(f"block {blk} uses foreign point {p}")
            else:
                counts[p] += 1
    for p, c in counts.items():
        if c != d.r:
            rep.replication_ok = False
            rep.failures.append(f"point {p} lies in {c} blocks, expected {d.r}")
    n, lam = d.n, d.lam
    if comb(n, 2) <= sum(comb(len(blk), 2) for blk in d.blocks):
        # pair p < q of 1..n counted at its lexicographic rank, base[p] + q
        base = [(p - 1) * (2 * n - p) // 2 - p - 1 for p in range(n + 1)]
        paircnt = [0] * comb(n, 2)
        for blk in d.blocks:
            for p, q in combinations(sorted(blk), 2):
                if 1 <= p < q <= n:
                    paircnt[base[p] + q] += 1
        bad = (() if paircnt.count(lam) == len(paircnt) else
               ((pq, c) for pq, c in zip(combinations(range(1, n + 1), 2), paircnt) if c != lam))
    else:
        # fewer block pairs than pairs of 1..n: a sparse count stays as small
        # as the blocks; with lam != 0 every uncounted pair fails, so the walk
        # reaches its 41st failure within len(paircnt) + 41 steps
        paircnt = {}
        for blk in d.blocks:
            for pq in combinations(sorted(blk), 2):
                paircnt[pq] = paircnt.get(pq, 0) + 1
        bad = (sorted((pq, c) for pq, c in paircnt.items() if 1 <= pq[0] < pq[1] <= n)
               if lam == 0 else
               ((pq, c) for pq in combinations(range(1, n + 1), 2)
                if (c := paircnt.get(pq, 0)) != lam))
    for pq, c in bad:
        rep.pair_coverage_ok = False
        rep.failures.append(f"pair {pq} covered {c} times, expected {lam}")
        if len(rep.failures) > 40:
            rep.failures.append("... (truncated)")
            return rep
    if d.n * d.r != d.b * d.k:
        rep.equations_ok = False
        rep.failures.append(f"nr != bk: {d.n}*{d.r} != {d.b}*{d.k}")
    if d.r * (d.k - 1) != d.lam * (d.n - 1):
        rep.equations_ok = False
        rep.failures.append(f"r(k-1) != lambda(n-1)")
    return rep


def _checked(d: Design) -> Design:
    rep = verify_design(d)
    if not rep.passed:
        raise CertificateError(f"design self-check failed: {rep.failures[:3]}")
    return d


# ---------------------------------------------------------------------------
# Steiner triple systems


def _level_blocks(m: int, third):
    """The blocks {(x,l), (y,l), (third(x,y), l+1)}, x < y in Z_m, l in Z_3.

    Point (x, l) is labelled l*m + x + 1; third is a commutative quasigroup
    (or one composed with a permutation), so each pair inside a level lies in
    exactly one of these blocks.
    """
    return [tuple(sorted((lev * m + x + 1, lev * m + y + 1, (lev + 1) % 3 * m + third(x, y) + 1)))
            for lev in range(3) for x, y in combinations(range(m), 2)]


def _bose_sts(n: int) -> Design:
    # n = 6t+3; points Z_{2t+1} x {0,1,2}; idempotent quasigroup x*y = (x+y)(t+1)
    t = (n - 3) // 6
    m = 2 * t + 1
    blocks = [(x + 1, m + x + 1, 2 * m + x + 1) for x in range(m)]
    blocks += _level_blocks(m, lambda x, y: (x + y) * (t + 1) % m)
    return Design(n=n, blocks=tuple(sorted(blocks)), k=3, r=(n - 1) // 2, lam=1)


def _skolem_sts(n: int) -> Design:
    # n = 6t+1; points {inf} u (Z_{2t} x {0,1,2}); half-idempotent quasigroup
    t = (n - 1) // 6
    m = 2 * t

    def op(x, y):  # f(x+y), the renaming f making x*y half-idempotent
        v = (x + y) % m
        return v // 2 if v % 2 == 0 else t + (v - 1) // 2

    inf = n
    blocks = [(x + 1, m + x + 1, 2 * m + x + 1) for x in range(t)]
    for x in range(t, m):
        for lev in range(3):
            blocks.append(tuple(sorted((inf, lev * m + x + 1, (lev + 1) % 3 * m + op(x, x) + 1))))
    blocks += _level_blocks(m, op)
    return Design(n=n, blocks=tuple(sorted(blocks)), k=3, r=(n - 1) // 2, lam=1)


def triangle_packing(v: int):
    """A maximum triangle packing of K_v, v = 5 (mod 6), as sorted blocks.

    The 6m+5 construction: points Z_m x {0,1,2} (m = (v-2)/3, point (x, l)
    labelled l*m + x + 1) plus inf1 = v-1 and inf2 = v.  The Bose blocks with
    their third point moved by alpha = (0)(1 2)(3 4)...(m-2 m-1) miss the
    pairs (x,l)(alpha(x),l+1); for odd x, {inf1, (x,l), (x+1,l+1)} and
    {inf2, (x+1,l), (x,l+1)} take all of them but (0,l)(0,l+1), and
    {inf1, (0,0), (0,1)}, {inf2, (0,1), (0,2)} two of those.  The leave is
    the 4-cycle (0,0) (0,2) inf1 inf2, so deleting inf2 leaves a 3-edge star
    at (0,2) plus a perfect matching.  Built for 5 <= v <= 999.
    """
    if v % 6 != 5 or not 5 <= v <= 999:
        raise ParameterDomainError(f"the triangle packing is built for v = 5 (mod 6), "
                                   f"5 <= v <= 999, got {v}")
    m = (v - 2) // 3
    inf1, inf2 = v - 1, v

    def third(x, y):  # alpha((x+y)/2)
        z = (x + y) * (m + 1) // 2 % m
        return z + 1 if z % 2 else max(z - 1, 0)

    blocks = _level_blocks(m, third)
    for x in range(1, m, 2):
        for lev in range(3):
            up = (lev + 1) % 3 * m
            blocks.append((lev * m + x + 1, up + x + 2, inf1))
            blocks.append((lev * m + x + 2, up + x + 1, inf2))
    blocks += [(1, m + 1, inf1), (m + 1, 2 * m + 1, inf2)]
    return tuple(sorted(tuple(sorted(blk)) for blk in blocks))


@cache
def construct_sts(n: int) -> Design:
    """A verified STS(n), built for n <= 999; exists iff n = 1 or 3 (mod 6)."""
    if n < 3 or n % 6 not in (1, 3):
        raise ParameterDomainError(f"STS(n) requires n = 1,3 (mod 6) and n >= 3, got {n}")
    if n > 999:
        raise ParameterDomainError(f"STS({n}) is built for n <= 999")
    return _checked(_bose_sts(n) if n % 6 == 3 else _skolem_sts(n))


def punctured_packing(n: int):
    """Triangles and leave of a maximum triangle packing of K_{n+1} less point n+1.

    n = 0, 2 (mod 6): the packing is STS(n+1), and the leave on 1..n is a
    perfect matching (the blocks through n+1), in lexicographic order like
    every leave here; n = 4 (mod 6): triangle_packing(n+1), and the leave
    is a 3-edge star plus a perfect matching.  The triangles are sorted.
    """
    v = n + 1
    packing = construct_sts(v).blocks if n % 6 in (0, 2) else triangle_packing(v)
    triangles = [blk for blk in packing if v not in blk]
    covered = {e for blk in triangles for e in combinations(blk, 2)}
    return triangles, [e for e in combinations(range(1, v), 2) if e not in covered]


def find_parallel_class(d: Design):
    """The Bose transversal class of an STS(n), n = 3 (mod 6), in sorted order.

    In the Bose system on Z_m x {0,1,2} (m = n/3) the blocks
    {(x,0),(x,1),(x,2)} partition the points; each is checked to be a block of d.
    """
    if d.n % 6 != 3:
        raise ParameterDomainError(f"the Bose parallel class needs n = 3 (mod 6), got n={d.n}")
    m = d.n // 3
    pc = [(x + 1, m + x + 1, 2 * m + x + 1) for x in range(m)]
    if not set(pc) <= set(d.blocks):
        raise CertificateError(f"the transversal triples are not blocks: not a Bose STS({d.n})")
    return pc


# ---------------------------------------------------------------------------
# Kirkman triple systems


def _resolution_from_days(n: int, days) -> Resolution:
    """The verified resolvable 2-(n, k, 1) design whose parallel classes are days,
    each sorted.

    k is read off the blocks and r = (n-1)/(k-1): KTS days (k = 3) and the
    factors of a 1-factorization of K_n (k = 2) are certified alike.  Once
    the design passes, no block repeats and each point lies in r blocks, so
    days that each partition the points are its r parallel classes.
    """
    days = tuple(tuple(sorted(day)) for day in days)
    blocks = tuple(sorted(blk for day in days for blk in day))
    k = len(blocks[0])
    design = _checked(Design(n=n, blocks=blocks, k=k, r=(n - 1) // (k - 1), lam=1))
    if any(sorted(p for blk in day for p in blk) != list(range(1, n + 1)) for day in days):
        raise CertificateError("resolution class is not a partition of the points")
    return Resolution(design=design, classes=days)


def _pg32_days():
    """The schoolgirl solution: the 35 lines {a, b, a^b} of PG(3,2) in 7 spreads.

    Points 1..15 are the nonzero vectors of GF(2)^4.  The GF(2)-linear
    collineation sigma sending bit j to (4, 7, 10, 1)[j] has order 7, and the
    orbit of the one spread below under it partitions the lines.
    """
    def sigma(p):
        return reduce(xor, (img for j, img in enumerate((4, 7, 10, 1)) if p >> j & 1))

    day = ((1, 2, 3), (4, 8, 12), (5, 10, 15), (6, 11, 13), (7, 9, 14))
    days = []
    for _ in range(7):
        days.append(sorted(day))
        day = [tuple(sorted(map(sigma, line))) for line in day]
    return sorted(days)


def _rotational_day_orbit(m, bs, cs, max_nodes):
    """Starter partition D for the rotational KTS(3m) ansatz, or None if none exists.

    D must hit each pure difference orbit once and each mixed orbit not
    consumed by the fixed-day starters once; exact cover does the rest.  The
    3m available orbits are columns 0..3m-1 (pure by level and difference,
    then mixed by level pair and difference); point p = level*m + x, the
    point (x, level), is column 3m + p.  col[i][j] is the orbit column of
    the pair i < j, or -1 if used up.  A triple i < j < k in three distinct
    available orbits is the row (col[i][j], col[i][k], col[j][k], 3m+i, 3m+j,
    3m+k); D is the triples taken.  Raises SearchExhaustedError past max_nodes.
    """
    used = {(0, 1): set(bs), (0, 2): set(cs), (1, 2): {(c - b) % m for b, c in zip(bs, cs)}}
    orbits = [(lev, lev, d) for lev in range(3) for d in range(1, (m + 1) // 2)]  # pure
    orbits += [(l1, l2, d) for (l1, l2), taken in used.items() for d in range(m) if d not in taken]
    orbit = {o: c for c, o in enumerate(orbits)}
    npts = 3 * m
    col = [[-1] * npts for _ in range(npts)]
    for i in range(npts):
        l1, x1 = divmod(i, m)
        for j in range(i + 1, npts):
            l2, x2 = divmod(j, m)
            d = (x2 - x1) % m
            col[i][j] = orbit.get((l1, l2, min(d, m - d) if l1 == l2 else d), -1)
    rows = []
    for i, ci in enumerate(col):
        for j, cj in enumerate(col[i + 1:], i + 1):
            if (a := ci[j]) >= 0:
                for k in range(j + 1, npts):
                    b, c = ci[k], cj[k]
                    if b >= 0 and c >= 0 and a != b != c != a:
                        rows.append((a, b, c, npts + i, npts + j, npts + k))
    sol = exact_cover(2 * npts, rows, max_nodes=max_nodes)
    return None if sol is None else [tuple(p - npts for p in rows[r][3:]) for r in sol]


# Fixed-day starters (b_j), (c_j) for the orders m where the canonical
# b_j = j, c_j = 2j admit no starter partition.
_ROTATIONAL_STARTERS = {7: ((0, 1, 2), (0, 2, 5))}


def _rotational_kts_days(n: int, max_nodes: int = 500000):
    """KTS(3m) with the cyclic symmetry (x, level) -> (x+1, level) on Z_m.

    (m-1)/2 fixed days develop transversal starters {(0,0),(b,1),(c,2)};
    the remaining m days are the translates of one starter partition.
    """
    m = n // 3
    k = (m - 1) // 2
    bs, cs = _ROTATIONAL_STARTERS.get(m, (range(1, k + 1), range(2, 2 * k + 1, 2)))
    try:
        D = _rotational_day_orbit(m, bs, cs, max_nodes)
    except SearchExhaustedError as exc:
        raise SearchExhaustedError(
            f"KTS({n}): the rotational starter search stopped after {exc.nodes} "
            f"exact-cover nodes, over its budget of {max_nodes} nodes",
            nodes=exc.nodes, budget=max_nodes) from exc
    if D is None:
        raise SearchExhaustedError(
            f"KTS({n}): a complete exact-cover search found no rotational starter "
            f"partition for the fixed-day starters b = {tuple(bs)}, c = {tuple(cs)}")

    def tr(tri, i):
        return tuple(sorted(p - p % m + (p + i) % m + 1 for p in tri))

    days = [sorted(tr((0, m + b, 2 * m + c), i) for i in range(m)) for b, c in zip(bs, cs)]
    days += [sorted(tr(t, i) for t in D) for i in range(m)]
    return days


def _tripled_days(u: int):
    """KTS(3u) from KTS(u) on X_u x Z_3, the point (x, i) labelled i*u + x.

    Each day of KTS(u) and each s in Z_3 give the day of blocks
    {(x,i), (y,i-s), (z,s-2i)}, one per block xyz of that day and i in Z_3
    (the transversal design i+j+k = 0, resolved by i-j); the fibres
    {(x,0), (x,1), (x,2)} make the last day.
    """
    days = []
    for cls in construct_kts(u).classes:
        for s in range(3):
            days.append(sorted(
                tuple(sorted((i * u + x, (i - s) % 3 * u + y, (s - 2 * i) % 3 * u + z)))
                for x, y, z in cls for i in range(3)))
    days.append([(x, u + x, 2 * u + x) for x in range(1, u + 1)])
    return days


@cache
def construct_kts(n: int) -> Resolution:
    """A verified Kirkman triple system KTS(n); exists iff n = 3 (mod 6).

    n = 9 (mod 18) is tripled from KTS(n/3), n = 15 is a collineation orbit
    of PG(3,2) spreads, and every other n (above 3) comes from one
    rotational starter search over Z_{n/3}.  That search succeeds for every n <= 129, so every
    n = 3 (mod 6) up to 129 is built, and so is every n = 9 (mod 18) that
    triples down to one of them.  Any other n raises ParameterDomainError
    before a search row is built.
    """
    if n % 6 != 3 or n < 3:
        raise ParameterDomainError(f"KTS(n) requires n = 3 (mod 6), got {n}")
    if n == 3:
        days = [[(1, 2, 3)]]
    elif n % 18 == 9:
        days = _tripled_days(n // 3)
    elif n == 15:
        days = _pg32_days()
    elif n > 129:  # beyond the declared range of the rotational search
        raise ParameterDomainError(f"KTS({n}) is built for n <= 129, or n = 9 (mod 18) "
                                   "tripled down to that range")
    else:
        days = _rotational_kts_days(n)
    return _resolution_from_days(n, days)


# ---------------------------------------------------------------------------
# The projective plane of order 4 as a (21,5,1)-design


# GF(4) as {0, 1, w, w+1} with w^2 = w+1, encoded 0..3 (bit0 = 1, bit1 = w)
_GF4_MUL = ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2))


@cache
def construct_design_21_5_1() -> Design:
    """Points and lines of PG(2,4) over the 4-element field.

    Points are the vectors of GF(4)^3 whose first nonzero entry is 1, in
    product order (point i+1 is pts[i]); lines are the same vectors, and
    line a holds x iff <a, x> = 0.
    """
    pts = [v for v in product(range(4), repeat=3) if next((x for x in v if x), 0) == 1]
    blocks = [tuple(i + 1 for i, p in enumerate(pts)
                    if not reduce(xor, (_GF4_MUL[x][y] for x, y in zip(line, p))))
              for line in pts]
    return _checked(Design(n=21, blocks=tuple(sorted(blocks)), k=5, r=5, lam=1))


# ---------------------------------------------------------------------------
# 1-factorizations


def _developed_factor(t2: int, starter, i: int) -> list:
    """Factor i of a starter of Z_{t2-1} developed with infinity, on points 1..t2.

    Edges in order: {inf, i}, then {a+i, b+i} for each starter pair {a, b}
    in turn (x in Z_{t2-1} is point x+1, infinity is point t2).
    """
    m = t2 - 1
    return [(i + 1, t2)] + [(x, y) if (x := (a + i) % m + 1) < (y := (b + i) % m + 1) else (y, x)
                            for a, b in starter]


def circle_factor(t2: int, i: int) -> list:
    """Factor i of the circle method: the starter {-k, k}, k = 1 .. t2/2 - 1, developed."""
    return _developed_factor(t2, [(-k, k) for k in range(1, t2 // 2)], i)


ONE_FACTOR_ORDER_CAP = 600  # largest declared order: the design check counts t2^2/2 pairs


def construct_one_factorization(t2: int) -> Resolution:
    """Round-robin (circle method) 1-factorization of K_{t2} on points 1..t2."""
    if t2 % 2 != 0 or not 4 <= t2 <= ONE_FACTOR_ORDER_CAP:
        raise ParameterDomainError(
            f"1-factorization needs even order in 4..{ONE_FACTOR_ORDER_CAP}, got {t2}")
    return _resolution_from_days(t2, (circle_factor(t2, i) for i in range(t2 - 1)))


def _doubled_factors(t2: int):
    """The factors of K_{2n}, n = t2/2 odd, on Z_n x {0,1}, (x, s) labelled s*n + x + 1.

    Factor i in Z_n is the vertical edge {(i,0), (i,1)} plus circle_factor(n+1, i)
    less its infinity edge in both copies; cross factor k = 1..n-1 joins (x,0)
    to (x+k,1).  This doubling (GA_{2n}) is 4-cycle-free for odd n.
    """
    n = t2 // 2
    for i in range(n):
        half = circle_factor(n + 1, i)[1:]
        yield [(i + 1, n + i + 1)] + half + [(a + n, b + n) for a, b in half]
    for k in range(1, n):
        yield [(x + 1, n + (x + k) % n + 1) for x in range(n)]


def c4_pair_count(res: Resolution) -> int:
    """The number of factor pairs of a 1-factorization whose union has a 4-cycle.

    With p_f the partner map of factor f, q = p_j p_i walks two edges round
    the union of F_i and F_j, so a 4-cycle is a point that q moves and q^2 fixes.
    """
    n = res.design.n
    partners = []
    for fac in res.classes:
        p = [0] * (n + 1)
        for a, b in fac:
            p[a], p[b] = b, a
        partners.append(p)
    pts = range(1, n + 1)
    return sum(any(q[q[v]] == v != q[v] for v in pts)
               for q in ([pj[x] for x in pi] for pi, pj in combinations(partners, 2)))


C4F_BUDGET = 200_000  # nodes of the 4-cycle-free starter search
C4F_ORDER_CAP = 202  # largest declared order: the C4 certificate grows as t2^3


def _c4_free_starter(m: int):
    """Pairs of a starter of Z_m (m odd) that develops 4-cycle-free, or None if none does.

    A starter pairs up Z_m - {0}, each difference class +-d (d = 1..(m-1)/2)
    once; with {inf, 0} it is the factor F_0, and F_i = F_0 + i.  By
    translation, F_0 u F_d for d = 1..(m-1)/2 holds every C4 up to a shift.
    The search pairs the smallest unpaired a with a + d, then a - d, over the
    unused d from largest to smallest.  The new pair puts {a, b} in F_0 and
    {a+d, b+d} in F_d, so a C4 it closes passes a or a+d: the walk S, S_d, S,
    S_d from there returns (S the partial starter, S_d(x) = S(x-d) + d).
    Raises SearchExhaustedError once the search passes C4F_BUDGET nodes.
    """
    inf, half = m, (m - 1) // 2
    partner = [inf] + [None] * (m - 1)  # S on Z_m, the pair {inf, 0} fixed
    used = [False] * (half + 1)
    nodes = 0

    def closes_c4(x, d):  # the walk S, S_d, S, S_d from x returns to x
        y = x
        for e in (0, d, 0, d):  # y's partner in F_e, F_e = F_0 + e
            if y == inf:
                y = e
            else:
                y = partner[(y - e) % m]
                if y is None:
                    return False
                if y != inf:
                    y = (y + e) % m
        return y == x

    def grow():
        nonlocal nodes
        nodes += 1
        if nodes > C4F_BUDGET:
            raise SearchExhaustedError(
                f"no 4-cycle-free 1-factorization of K_{m + 1}: the starter search "
                f"stopped after {nodes} nodes, over its budget of {C4F_BUDGET}",
                nodes=nodes, budget=C4F_BUDGET)
        if None not in partner:
            return True
        a = partner.index(None)
        for d in range(half, 0, -1):
            for b in ((a + d) % m, (a - d) % m):
                if used[d] or partner[b] is not None:
                    continue
                partner[a], partner[b], used[d] = b, a, True
                if not any(closes_c4(x, e) for e in range(1, half + 1)
                           for x in (a, (a + e) % m)) and grow():
                    return True
                partner[a] = partner[b] = None
                used[d] = False
        return False

    return [(a, b) for a, b in enumerate(partner) if a < b < m] if grow() else None


@cache
def c4_free_one_factorization(t2: int) -> Resolution:
    """A 1-factorization of K_{t2} in which no two factors' union has a C4 component.

    Three routes: the circle method unless 3 | t2-1 (the only C4 it ever
    produces is {inf, i, i+d, i+2d} with 3d = 0 mod t2-1); else the doubling
    for t2 = 2 (mod 4); else (16, 28, 40) the starter of Z_{t2-1} that
    `_c4_free_starter` finds.  Declared for every even t2 in 6..C4F_ORDER_CAP
    but the search orders above 40; those (52, 64, ...) and orders above the
    cap raise ParameterDomainError before anything is built.
    """
    if t2 % 2 != 0 or not 6 <= t2 <= C4F_ORDER_CAP:
        raise ParameterDomainError(f"4-cycle-free 1-factorization is declared for even orders "
                                   f"6..{C4F_ORDER_CAP} (K_4 has none), got {t2}")
    m = t2 - 1
    if m % 3:
        of = construct_one_factorization(t2)
    elif t2 % 4 == 2:
        of = _resolution_from_days(t2, _doubled_factors(t2))
    elif t2 > 40:
        raise ParameterDomainError(
            f"4-cycle-free 1-factorization of K_{t2} needs the starter search "
            f"(3 | {m}, 4 | {t2}), which is declared for orders <= 40")
    else:
        starter = _c4_free_starter(m)
        if starter is None:
            raise SearchExhaustedError(f"a complete search found no 4-cycle-free starter of Z_{m}")
        of = _resolution_from_days(t2, (_developed_factor(t2, starter, i) for i in range(m)))
    if c4_pair_count(of) != 0:
        raise CertificateError(f"the 1-factorization of K_{t2} has a C4 component")
    return of
