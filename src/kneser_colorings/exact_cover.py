"""Algorithm X on int bitsets (no dancing links; instances here are small).

Rows and columns are arbitrary hashable ids.  Row i of sorted(rows, key=repr)
is bit i, and each column of sorted(columns, key=repr) keeps one mask of the
rows that cover it.  A search node is an `alive` row mask and an `open`
column mask.  It branches on the first open column, in repr order, with the
fewest alive rows, and tries them low bit first.  Taking a row clears the
OR of its columns' masks from `alive` and its columns from `open`; nothing is
saved or restored on the way back.  A node costs one AND and popcount per
open column plus a few mask ORs per candidate row, each linear in the row
count.
"""
from __future__ import annotations

from .errors import SearchExhaustedError
from .kneser import bit_indices


def exact_cover(columns, rows: dict, max_nodes: int | None = None):
    """Return a list of row ids covering every column exactly once, or None.

    rows maps row_id -> iterable of column ids.  Column ids not listed in
    `columns` are ignored; every column in `columns` must be covered.
    Raises SearchExhaustedError once more than max_nodes nodes are searched.
    """
    col_ids = sorted(set(columns), key=repr)
    col_index = {c: j for j, c in enumerate(col_ids)}
    row_ids = sorted(rows, key=repr)
    row_cols = []
    col_bytes = [bytearray((len(row_ids) + 7) // 8) for _ in col_ids]
    for i, r in enumerate(row_ids):
        js = tuple({col_index[c] for c in rows[r] if c in col_index})
        row_cols.append(js)
        for j in js:
            col_bytes[j][i >> 3] |= 1 << (i & 7)
    col_rows = [int.from_bytes(b, "little") for b in col_bytes]

    solution = []
    nodes = 0

    def search(alive, open_):
        nonlocal nodes
        nodes += 1
        if max_nodes is not None and nodes > max_nodes:
            raise SearchExhaustedError(f"exact cover searched {nodes} nodes, "
                                       f"over its budget of {max_nodes}",
                                       nodes=nodes, budget=max_nodes)
        if not open_:
            return True
        best = fewest = None
        for j in bit_indices(open_):
            count = (col_rows[j] & alive).bit_count()
            if fewest is None or count < fewest:
                best, fewest = j, count
                if not count:
                    break
        for i in bit_indices(col_rows[best] & alive):
            taken = 0
            closed = 0
            for j in row_cols[i]:
                taken |= col_rows[j]
                closed |= 1 << j
            solution.append(row_ids[i])
            if search(alive & ~taken, open_ & ~closed):
                return True
            solution.pop()
        return False

    if search((1 << len(row_ids)) - 1, (1 << len(col_ids)) - 1):
        return solution
    return None
