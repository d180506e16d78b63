"""Algorithm X on int bitsets (no dancing links; instances here are small).

The caller numbers its own columns 0..ncols-1 and rows 0..len(rows)-1: row i
lists the columns it covers, and is bit i of each column's mask of the rows
that cover it.  A search node is an `alive` row mask and an `open` column
mask.  It branches on the lowest open column with the fewest alive rows, and
tries them low bit first.  Taking row i clears the OR of its columns' masks
from `alive` and their bits from `open`; nothing is restored on the way back.
A node costs one AND and popcount per open column plus a few mask ORs per
candidate row, each linear in the row count.
"""
from __future__ import annotations

from .errors import SearchExhaustedError
from .kneser import bit_indices


def exact_cover(ncols: int, rows, max_nodes: int | None = None):
    """Return the indices of rows that cover each of columns 0..ncols-1 once, or None.

    rows[i] lists the distinct columns row i covers, each below ncols.
    Raises SearchExhaustedError once more than max_nodes nodes are searched.
    """
    col_bytes = [bytearray((len(rows) + 7) // 8) for _ in range(ncols)]
    for i, cols in enumerate(rows):
        for j in cols:
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
            taken = covered = 0
            for j in rows[i]:
                taken |= col_rows[j]
                covered |= 1 << j
            solution.append(i)
            if search(alive & ~taken, open_ & ~covered):
                return True
            solution.pop()
        return False

    return solution if search((1 << len(rows)) - 1, (1 << ncols) - 1) else None
