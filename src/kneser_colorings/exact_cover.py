"""Algorithm X over dict-of-sets (no dancing links; instances here are small).

Rows and columns are arbitrary hashable ids.  Deterministic: the most
constrained column is chosen first, candidate rows are tried in sorted order.
"""
from __future__ import annotations

from .errors import SearchExhaustedError


def exact_cover(columns, rows: dict, max_nodes: int | None = None):
    """Return a list of row ids covering every column exactly once, or None.

    rows maps row_id -> iterable of column ids.  Column ids not listed in
    `columns` are ignored; every column in `columns` must be covered.
    Raises SearchExhaustedError once more than max_nodes nodes are searched.
    """
    want = set(columns)
    row_cols = {r: frozenset(c for c in cs if c in want) for r, cs in rows.items()}
    col_rows = {c: set() for c in want}
    for r, cs in row_cols.items():
        for c in cs:
            col_rows[c].add(r)

    solution = []
    nodes = 0

    def search():
        nonlocal nodes
        nodes += 1
        if max_nodes is not None and nodes > max_nodes:
            raise SearchExhaustedError(f"exact cover searched {nodes} nodes, "
                                       f"over its budget of {max_nodes}")
        if not col_rows:
            return True
        c = min(col_rows, key=lambda cc: (len(col_rows[cc]), repr(cc)))
        for rid in sorted(col_rows[c], key=repr):
            saved = {cc: col_rows[cc] for cc in row_cols[rid]}
            for cc in row_cols[rid]:
                del col_rows[cc]
            trimmed = []
            for cc, rs in saved.items():
                for r2 in rs:
                    if r2 == rid:
                        continue
                    for c2 in row_cols[r2]:
                        if c2 in col_rows and r2 in col_rows[c2]:
                            col_rows[c2].discard(r2)
                            trimmed.append((c2, r2))
            solution.append(rid)
            if search():
                return True
            solution.pop()
            for c2, r2 in reversed(trimmed):
                col_rows[c2].add(r2)
            for cc, rs in saved.items():
                col_rows[cc] = rs
        return False

    if search():
        return solution
    return None
