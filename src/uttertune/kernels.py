"""Hot numeric kernels, in NumPy.

Kernels:
  * edit_distance_table    the full Levenshtein DP table between two id
                           sequences: the one DP that both eval's CER
                           (through edit_distance, its last cell) and its
                           target-word alignment (a backtrace) read
  * edit_distance          unit-cost Levenshtein between two id sequences
  * edit_distance_matrix   all-pairs Levenshtein over a padded string table
  * bfs_distance_matrix    all-pairs shortest paths on an explicit
                           edit-move graph (the DP-free oracle used to
                           cross-check the DP route; keep the two
                           implementations independent)

edit_distance_matrix keeps its own recurrence over uint8 layers, on dense
symbol codes laid out one contiguous row per string position: batching
edit_distance_table's running minimum (np.minimum.accumulate along axis 0
of a 3-D array) took ~9 s on check 7's (4, 6) universe, against ~2 s for
this recurrence on strided int64 symbols and ~0.6 s on the codes.

Both matrix kernels return uint8 and reject inputs whose values would not
fit: edit_distance_matrix strings longer than MAX_MATRIX_LEN, and
bfs_distance_matrix paths of UNREACHABLE steps or more.

Plus deterministic constructors for the exhaustive small-string universe
and its edit-move graph (nodes = strings, edges = single edit operations).
An optimal edit script can always be reordered as deletions, then
substitutions, then insertions, so intermediate strings never exceed
max(len(a), len(b)); BFS restricted to strings of length <= max_len is
therefore exact for pairs inside the universe.
"""

from __future__ import annotations

import itertools

import numpy as np

UNREACHABLE = 255
# Every DP value is <= max(la, lb), and a cell adds 1 before taking the
# minimum, so strings up to 254 long keep every uint8 step below overflow.
MAX_MATRIX_LEN = UNREACHABLE - 1
# Cells per DP layer in edit_distance_matrix. At length 6 the two rows of
# layers of one row block then take about 2 MB, the size of an L2 cache.
_DP_BLOCK_CELLS = 1 << 17


def active_backend() -> str:
    """Name of the kernel backend; there is one, NumPy."""
    return "numpy"


# -- single-pair edit distance -------------------------------------------


def edit_distance_table(a, b) -> np.ndarray:
    """Unit-cost Levenshtein table between two integer sequences.

    Returns the (len(a)+1, len(b)+1) int64 matrix whose cell [i, j] is the
    distance between a[:i] and b[:j] (Wagner & Fischer, JACM 21(1), 1974).
    Each row is filled by a few vectorised passes over the row above.
    """
    a = np.ascontiguousarray(a, dtype=np.int64)
    b = np.ascontiguousarray(b, dtype=np.int64)
    m, n = a.shape[0], b.shape[0]
    # The DP runs on e[i, j] = d[i, j] - i - j. There a deletion or an
    # insertion costs 0 and a diagonal step -2 or -1, so that
    # e[i, j] = min(e[i-1, j], e[i-1, j-1] + cost[i-1, j-1], e[i, j-1]),
    # with zeros on both borders: a row is the running minimum of two
    # shifted views of the row above.
    cost = (a[:, None] != b[None, :]).astype(np.int64) - 2
    table = np.zeros((m + 1, n + 1), dtype=np.int64)
    for i in range(m):
        prev, row = table[i], table[i + 1]
        np.add(prev[:-1], cost[i], out=row[1:])
        np.minimum(row[1:], prev[1:], out=row[1:])
        np.minimum.accumulate(row, out=row)
    table += np.add.outer(np.arange(m + 1), np.arange(n + 1))
    return table


def edit_distance(a, b) -> int:
    """Unit-cost Levenshtein distance between two integer sequences."""
    return int(edit_distance_table(a, b)[-1, -1])


# -- all-pairs edit distance over a padded table ---------------------------


def edit_distance_matrix(padded, lengths) -> np.ndarray:
    """Levenshtein distance for every ordered pair of table rows.

    padded is (n, width) int8/int64 with rows padded past their length;
    lengths is (n,). Returns a (n, n) uint8 matrix (distances <= max
    length). Raises ValueError if padded is not 2-D, if lengths does not
    hold one value in [0, width] per row, or if a string is longer than
    MAX_MATRIX_LEN.
    """
    padded = np.asarray(padded, dtype=np.int64)
    lengths = np.ascontiguousarray(lengths, dtype=np.int64)
    if padded.ndim != 2:
        raise ValueError(f"edit_distance_matrix needs a (n, width) table, "
                         f"got shape {padded.shape}")
    n_str, width = padded.shape
    if lengths.shape != (n_str,):
        raise ValueError(f"edit_distance_matrix needs one length per row: "
                         f"{n_str} rows, lengths of shape {lengths.shape}")
    if n_str and (lengths.min() < 0 or lengths.max() > width):
        raise ValueError(f"edit_distance_matrix takes lengths in [0, {width}], "
                         f"got {lengths.min()}..{lengths.max()}")
    max_len = int(lengths.max()) if n_str else 0
    if max_len > MAX_MATRIX_LEN:
        raise ValueError(
            f"edit_distance_matrix takes strings up to {MAX_MATRIX_LEN} long, "
            f"got one of length {max_len}"
        )
    # The DP only tests symbols for equality, so it runs on dense codes in
    # the smallest unsigned dtype, one contiguous row per string position.
    symbols, codes = np.unique(padded, return_inverse=True)
    codes = codes.reshape(padded.shape).astype(
        np.min_scalar_type(max(symbols.size - 1, 0)))
    by_len = [np.nonzero(lengths == L)[0] for L in range(max_len + 1)]
    by_pos = [np.ascontiguousarray(codes[ids, :L].T)
              for L, ids in enumerate(by_len)]
    out = np.empty((n_str, n_str), dtype=np.uint8)
    for la in range(max_len + 1):
        rows_la = by_len[la]
        if rows_la.size == 0:
            continue
        for lb in range(max_len + 1):
            cols, B = by_len[lb], by_pos[lb]
            if cols.size == 0:
                continue
            # DP layers: one (block, len(cols)) matrix per table cell, two
            # rows of them, swapped after each row of the table. Rows go in
            # blocks so that the layers stay in cache.
            block = min(rows_la.size, max(1, _DP_BLOCK_CELLS // cols.size))
            prev_buf = np.empty((lb + 1, block, cols.size), dtype=np.uint8)
            cur_buf = np.empty_like(prev_buf)
            neq_buf = np.empty((block, cols.size), dtype=bool)
            step_buf = np.empty((block, cols.size), dtype=np.uint8)
            for start in range(0, rows_la.size, block):
                rows = rows_la[start : start + block]
                A = by_pos[la][:, start : start + block]
                prev, cur = prev_buf[:, : rows.size], cur_buf[:, : rows.size]
                neq, step = neq_buf[: rows.size], step_buf[: rows.size]
                neq8 = neq.view(np.uint8)  # a uint8 + uint8 add, no casting
                prev[...] = np.arange(lb + 1, dtype=np.uint8)[:, None, None]
                for i in range(la):
                    cur[0] = i + 1
                    ai = A[i][:, None]
                    for j in range(lb):
                        c = cur[j + 1]
                        np.not_equal(ai, B[j], out=neq)
                        np.add(prev[j], neq8, out=c)
                        # Deletion and insertion both cost 1: +1 on their min.
                        np.minimum(prev[j + 1], cur[j], out=step)
                        np.add(step, 1, out=step)
                        np.minimum(c, step, out=c)
                    prev, cur = cur, prev
                out[np.ix_(rows, cols)] = prev[lb]
    return out


# -- BFS oracle over the edit-move graph -----------------------------------


def bfs_distance_matrix(indptr, indices, n_nodes: int) -> np.ndarray:
    """All-pairs shortest-path lengths by BFS from every node at once.

    (indptr, indices) is a CSR adjacency, directed or not; out[src, v] is
    the number of edges on a shortest path from src to v, UNREACHABLE (255)
    if there is none. Raises ValueError if the CSR is malformed or if some
    shortest path has 255 edges or more. Independent of the DP kernels by
    construction.

    All targets advance together, one level per step, on bit sets (the
    multi-source BFS of Then et al., PVLDB 8(4), 2014). Row src of the
    frontier holds one bit per target that src first reached at the
    previous level, and a level pulls those bits along src's out-neighbours,
    so the result is laid out as [source, target] from the start.
    """
    indptr = np.ascontiguousarray(indptr, dtype=np.int64)
    indices = np.ascontiguousarray(indices, dtype=np.int64)
    n = int(n_nodes)
    if n < 0 or indptr.shape != (n + 1,):
        raise ValueError(f"bfs_distance_matrix needs indptr of length "
                         f"n_nodes + 1 = {n + 1}, got shape {indptr.shape}")
    degree = np.diff(indptr)
    if indptr[0] != 0 or indptr[-1] != indices.size or (degree < 0).any():
        raise ValueError(f"bfs_distance_matrix needs indptr non-decreasing "
                         f"from 0 to len(indices) = {indices.size}, got "
                         f"{indptr[0]}..{indptr[-1]}")
    if indices.size and (indices.min() < 0 or indices.max() >= n):
        raise ValueError(f"bfs_distance_matrix takes node ids in [0, {n}), "
                         f"got {indices.min()}..{indices.max()}")
    # Out-neighbour lists padded to a rectangle with self loops, one row
    # per slot, so a node's next frontier row is an OR over its slots.
    max_deg = int(degree.max()) if n else 0
    out_adj = np.repeat(np.arange(n, dtype=np.int64)[None, :], max_deg, axis=0)
    out_adj.T[np.arange(max_deg) < degree[:, None]] = indices

    # Each level adds 1 to every pair still unseen; unreached pairs are set
    # to UNREACHABLE at the end.
    dist = np.zeros((n, n), dtype=np.uint8)
    frontier = np.packbits(np.eye(n, dtype=bool), axis=1)
    unseen = ~frontier
    reached = np.empty_like(frontier)
    gathered = np.empty_like(frontier)
    for level in itertools.count(1):
        reached.fill(0)
        for slot in out_adj:
            np.take(frontier, slot, axis=0, out=gathered)
            np.bitwise_or(reached, gathered, out=reached)
        np.bitwise_and(reached, unseen, out=reached)
        if not reached.any():
            break
        if level >= UNREACHABLE:
            raise ValueError(
                f"bfs_distance_matrix stores path lengths up to "
                f"{UNREACHABLE - 1} edges; this graph has longer ones"
            )
        np.add(dist, np.unpackbits(unseen, axis=1, count=n), out=dist)
        np.bitwise_xor(unseen, reached, out=unseen)
        frontier, reached = reached, frontier
    np.copyto(dist, UNREACHABLE,
              where=np.unpackbits(unseen, axis=1, count=n).view(bool))
    return dist


# -- exhaustive string universe --------------------------------------------


def enumerate_strings(alphabet_size: int, max_len: int):
    """All strings of length 0..max_len, ordered by length then lexicographic.

    Returns (padded, lengths): padded is (n, max_len_eff) int64 padded with
    -1, lengths is (n,) int64. Row order defines the node ids used by
    edit_move_graph.
    """
    width = max(max_len, 1)
    rows = [(-np.ones(width, dtype=np.int64), 0)]
    for L in range(1, max_len + 1):
        for combo in itertools.product(range(alphabet_size), repeat=L):
            row = -np.ones(width, dtype=np.int64)
            row[:L] = combo
            rows.append((row, L))
    padded = np.stack([r for r, _ in rows])
    lengths = np.array([L for _, L in rows], dtype=np.int64)
    return padded, lengths


def edit_move_graph(alphabet_size: int, max_len: int):
    """Edit-move graph over enumerate_strings(alphabet_size, max_len).

    Undirected by construction (every edit has an inverse edit inside the
    universe). Returns CSR (indptr, indices) plus the node count.

    A string of length L is node offset[L] + j, where j is the string read
    as a base-k number (k = alphabet_size, first symbol most significant),
    so each edit is arithmetic on j: with w = k**(L-1-p) the weight of
    position p, a substitution adds (c - s[p]) * w, a deletion joins the
    digits before p to the w-range after it, and an insertion splices c in
    at p. Edges are deduplicated and sorted as src * n + dst.
    """
    k = alphabet_size
    sizes = [k**L for L in range(max_len + 1)]
    offset = np.cumsum([0] + sizes)
    n = int(offset[-1])
    src, dst = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    for L in range(max_len + 1):
        j = np.arange(sizes[L], dtype=np.int64)
        node = offset[L] + j
        for p in range(L):
            w = k ** (L - 1 - p)
            head, digit, tail = j // (w * k), j // w % k, j % w
            for c in range(1, k):
                src.append(node)
                dst.append(node + ((digit + c) % k - digit) * w)
            src.append(node)
            dst.append(offset[L - 1] + head * w + tail)
        if L < max_len:
            for p in range(L + 1):
                w = k ** (L - p)
                head, tail = j // w, j % w
                for c in range(k):
                    src.append(node)
                    dst.append(offset[L + 1] + (head * k + c) * w + tail)
    edges = np.unique(np.concatenate(src) * n + np.concatenate(dst))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(edges // n, minlength=n), out=indptr[1:])
    return indptr, edges % n, n
