"""Hot numeric kernels, in NumPy.

Kernels:
  * edit_distance_tables   the pair DP: the full Levenshtein tables of a
                           batch of id sequence pairs, padded into one
                           array; eval runs it once per set for CER (each
                           pair's last cell) and once for the target-word
                           alignment (a backtrace through each pair's table)
  * edit_distance          unit-cost Levenshtein between two id sequences:
                           the pair DP's last cell, at a batch of one
  * edit_distance_matrix   the all-pairs DP: Levenshtein between every two
                           rows of a padded string table
  * bfs_distance_matrix    all-pairs shortest paths on an explicit
                           edit-move graph (the DP-free oracle used to
                           cross-check the DP route; keep the two
                           implementations independent)

edit_distance_matrix keeps its own recurrence, over the suffix trie of its
rows: one uint8 cell per pair of distinct suffixes, where a DP per pair of
rows repeats the cells of every shared suffix. Its nodes are numbered
first symbol before the rest, the order in which enumerate_strings lists
its rows, so on check 7's (4, 6) universe the trie is the table itself,
every parent read is a slice and no copy of the n x n result is made.
That is 29.8 M cells and ~0.03 s on a 2-vCPU Xeon.

bfs_distance_matrix runs its bit-set BFS over one block of 256 targets at
a time, every level of a block before the next block starts, with the
sources in falling out-degree order so that each out-neighbour slot
gathers for a prefix of the rows, one 32-byte row per edge, straight into
its buffer. Its cost is levels x (sum of out-degrees) x 32 bytes per
block, and its working set four n x 32-byte bit sets (175 KB each at
check 7's 5,461 nodes) plus the block's n x 256 distances. On (4, 6) that
is ~0.13 s on the same Xeon.

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
# Cells per row chunk in edit_distance_matrix, counted over the two depths
# of columns the chunk reads: its uint8 temporaries then stay in L2.
_DP_BLOCK_CELLS = 1 << 19
# Targets per block in bfs_distance_matrix, a multiple of 8: a block's bit
# sets then take n * 32 bytes each, 175 KB at check 7's 5,461 nodes, and
# stay in L2 through all of the block's levels.
_BFS_BLOCK_TARGETS = 256


def active_backend() -> str:
    """Name of the kernel backend; there is one, NumPy."""
    return "numpy"


# -- pairwise edit distance, batched --------------------------------------


def edit_distance_tables(a_seqs, b_seqs) -> np.ndarray:
    """Unit-cost Levenshtein tables of the pairs (a_seqs[k], b_seqs[k]).

    Returns one (B, m+1, n+1) int32 array, m and n the longest a and b
    sequences; pair k's table is its top-left (len(a_seqs[k])+1,
    len(b_seqs[k])+1) block, whose cell [i, j] is the distance between
    a[:i] and b[:j] (Wagner & Fischer, JACM 21(1), 1974). Cells outside a
    pair's block belong to its padding. Raises ValueError unless a_seqs and
    b_seqs are equally many 1-D integer sequences.
    """
    a, b = (_padded_ids("edit_distance_tables", seqs)
            for seqs in (a_seqs, b_seqs))
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"edit_distance_tables takes as many b sequences "
                         f"as a sequences, got {a.shape[0]} and {b.shape[0]}")
    table = _levenshtein_excess(a, b)
    table += np.arange(b.shape[1] + 1, dtype=np.int32)
    table += np.arange(a.shape[1] + 1, dtype=np.int32)[:, None, None]
    return table.swapaxes(0, 1)


def edit_distance(a, b) -> int:
    """Unit-cost Levenshtein distance between two integer sequences: the
    last cell of their table, from the pair DP with no batch axis.

    Raises ValueError unless a and b are 1-D integer sequences.
    """
    a, b = _id_sequence("edit_distance", a), _id_sequence("edit_distance", b)
    return int(_levenshtein_excess(a, b)[-1, -1]) + a.size + b.size


def _levenshtein_excess(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The pair DP on checked id arrays a (..., m) and b (..., n) of one
    batch shape, () or (B,): e[i, ..., j] = d[i, j] - i - j for each pair's
    Levenshtein table d, laid out as (m+1, ..., n+1).

    Each pair's block is exact whatever its padding holds: a cell reads
    only the row above and the cells to its left, and the padding lies
    below and to the right of the block.
    """
    m, n = a.shape[-1], b.shape[-1]
    # In e a deletion or an insertion costs 0 and a diagonal step -2 or -1,
    # so that e[i, j] = min(e[i-1, j], e[i-1, j-1] + cost[i-1, j-1],
    # e[i, j-1]), with zeros on both borders: a row is the running minimum
    # of two shifted views of the row above. Row i of every pair is one
    # contiguous block, and a lone pair's is 1-D.
    cost = (a.T[..., None] != b).astype(np.int32)
    cost -= 2
    table = np.zeros((m + 1, *a.shape[:-1], n + 1), dtype=np.int32)
    for i in range(m):
        prev, row = table[i], table[i + 1]
        np.add(prev[..., :-1], cost[i], out=row[..., 1:])
        np.minimum(row[..., 1:], prev[..., 1:], out=row[..., 1:])
        np.minimum.accumulate(row, axis=-1, out=row)
    return table


def _require_integers(kernel: str, what: str, values: np.ndarray) -> None:
    """Raise ValueError unless values holds integers or nothing: a float
    table would be truncated silently. An empty list is float64 in numpy,
    and stays valid."""
    if values.size and values.dtype.kind not in "iu":
        raise ValueError(f"{kernel} takes integer {what}, "
                         f"got dtype {values.dtype}")


def _id_sequence(kernel: str, seq) -> np.ndarray:
    """seq as a contiguous int64 array, or ValueError unless it is a 1-D
    integer sequence."""
    seq = np.asarray(seq)
    if seq.ndim != 1:
        raise ValueError(f"{kernel} takes 1-D id sequences, "
                         f"got shape {seq.shape}")
    _require_integers(kernel, "ids", seq)
    return np.ascontiguousarray(seq, dtype=np.int64)


def _padded_ids(kernel: str, seqs) -> np.ndarray:
    """The checked id sequences of seqs as the rows of one zero-padded
    (len(seqs), longest) int64 array."""
    rows = [_id_sequence(kernel, seq) for seq in seqs]
    width = max((row.size for row in rows), default=0)
    padded = np.zeros((len(rows), width), dtype=np.int64)
    for k, row in enumerate(rows):
        padded[k, : row.size] = row
    return padded


# -- all-pairs edit distance over a padded table ---------------------------


def edit_distance_matrix(padded, lengths) -> np.ndarray:
    """Levenshtein distance for every ordered pair of table rows.

    padded is (n, width) with integer ids, rows padded past their length;
    lengths is (n,). Returns a (n, n) uint8 matrix (distances <= max
    length). Raises ValueError if padded is not a 2-D integer table, if
    lengths does not hold one integer in [0, width] per row, or if a string
    is longer than MAX_MATRIX_LEN.

    The DP runs over the suffix trie of the rows, the trie of the reversed
    strings (Shang & Merrett, IEEE TKDE 8(4), 1996): d[u, v] is the
    distance between trie nodes u and v, each computed once from the cells
    of the nodes' parents, however many rows share those suffixes. A
    depth-(i+1) node is (first symbol, depth-i node of the rest), and the
    recurrence is Levenshtein's taken from the front: d(aX, bY) =
    min(d(X, bY) + 1, d(aX, Y) + 1, d(X, Y) + [a != b]).

    Nodes are numbered in depth order and, within a depth, by first symbol
    and then by the rest's number. enumerate_strings lists a string of
    length L at c * k**(L-1) + (the index of its rest) among its length, so
    for a full universe in that order node ids are row ids. There the
    nodes of one depth and first symbol have as parents the whole depth
    above, in order, so each chunk of rows reads its parents as one slice
    of d. A table that is not closed under suffixes has first-symbol groups
    whose parents skip ids, and these parents are gathered instead. The
    cost is one cell per pair of trie nodes, and n_nodes**2 bytes; a table
    whose rows are not the trie's nodes in order takes a second, n*n
    matrix for the rows' cells.
    """
    padded = np.asarray(padded)
    lengths = np.asarray(lengths)
    if padded.ndim != 2:
        raise ValueError(f"edit_distance_matrix needs a (n, width) table, "
                         f"got shape {padded.shape}")
    _require_integers("edit_distance_matrix", "table values", padded)
    _require_integers("edit_distance_matrix", "lengths", lengths)
    padded = padded.astype(np.int64, copy=False)
    lengths = lengths.astype(np.int64, copy=False)
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
    # The suffix trie, level by level. Node ids run in depth order from the
    # root, 0. A depth-(i+1) node is a distinct (symbol, suffix) key among
    # the rows longer than i: the row's (i+1)-th symbol from the end, and
    # the depth-i node of the rest, its parent. Keys are numbered in
    # order, so the nodes of one depth that share a first symbol are one
    # range; groups[i] lists those ranges as (symbol, nodes).
    # bounds[i]:bounds[i+1] are the depth-i nodes.
    codes = np.unique(padded, return_inverse=True)[1].reshape(padded.shape)
    row_node = np.zeros(n_str, dtype=np.int64)
    bounds = [0, 1]
    parent, groups = [np.zeros(1, np.int64)], [[]]
    for i in range(max_len):
        rows = np.nonzero(lengths > i)[0]
        lo = bounds[-1]
        keys, child = np.unique(
            codes[rows, lengths[rows] - 1 - i] * lo + row_node[rows],
            return_inverse=True)
        row_node[rows] = lo + child
        parent.append(keys % lo)
        bounds.append(lo + keys.size)
        symbol = keys // lo
        starts = np.flatnonzero(np.diff(symbol, prepend=-1)).tolist()
        groups.append([(int(symbol[a]), slice(lo + a, lo + b))
                       for a, b in zip(starts, [*starts[1:], keys.size])])
    parent = np.concatenate(parent)
    n_nodes = bounds[-1]

    # d[u, v] = min(d[pu, v] + 1, d[u, pv] + 1, d[pu, pv] + (sym u != sym v))
    # for u of depth i and v of depth j, one (i, j) block after another,
    # each after (i - 1, j) and (i, j - 1). Rows u go in chunks inside one
    # symbol group, so sym u is one value, and columns v one symbol group
    # at a time. Each chunk reads its parents' rows once, over the columns
    # of depths j - 1 and j, and takes both d[pu, v] and d[pu, pv] from
    # that read. Parents that are consecutive ids, as in a full universe,
    # are read as a slice; other parents are gathered.
    d = np.empty((n_nodes, n_nodes), dtype=np.uint8)
    d[0] = d[:, 0] = np.repeat(np.arange(max_len + 1, dtype=np.uint8),
                               np.diff(bounds))
    for j in range(1, max_len + 1):
        plo, hi = bounds[j - 1], bounds[j + 1]
        columns = [(sym_v, v, slice(v.start - plo, v.stop - plo),
                    _slice_if_range(parent[v]),
                    _slice_if_range(parent[v] - plo))
                   for sym_v, v in groups[j]]
        block = max(1, _DP_BLOCK_CELLS // (hi - plo))
        for sym_u, nodes in itertools.chain(*groups[1:]):
            for start in range(nodes.start, nodes.stop, block):
                u = slice(start, min(start + block, nodes.stop))
                above = d[_slice_if_range(parent[u]), plo:hi]
                for sym_v, v, v_above, pv, pv_above in columns:
                    # With best = min(d[pu, v], d[u, pv]) and diag =
                    # d[pu, pv], the cell is min(best + 1, diag) when the
                    # symbols match and min(best, diag) + 1 when they differ.
                    best = np.minimum(above[:, v_above], d[u, pv])
                    if sym_u == sym_v:
                        best += 1
                        np.minimum(best, above[:, pv_above], out=d[u, v])
                    else:
                        np.minimum(best, above[:, pv_above], out=best)
                        np.add(best, 1, out=d[u, v])
    if n_nodes == n_str and np.array_equal(row_node, np.arange(n_str)):
        return d
    return d[np.ix_(row_node, row_node)]


def _slice_if_range(ids: np.ndarray):
    """Increasing node ids as a slice when they are consecutive, so that
    numpy reads them as a view; otherwise the ids themselves."""
    first, last = int(ids[0]), int(ids[-1])
    return slice(first, last + 1) if last - first == ids.size - 1 else ids


# -- BFS oracle over the edit-move graph -----------------------------------


def bfs_distance_matrix(indptr, indices, n_nodes: int) -> np.ndarray:
    """All-pairs shortest-path lengths by BFS from every node at once.

    (indptr, indices) is a CSR adjacency, directed or not; out[src, v] is
    the number of edges on a shortest path from src to v, UNREACHABLE (255)
    if there is none. Raises ValueError if the CSR is malformed (float
    arrays and a non-integer n_nodes included) or if some shortest path
    has 255 edges or more. Independent of the DP kernels by
    construction.

    The targets advance together, one level per step, on bit sets (the
    multi-source BFS of Then et al., PVLDB 8(4), 2014), in blocks of
    _BFS_BLOCK_TARGETS = 256: every level of one block runs before the
    next block starts. Row src of the frontier holds one bit per target of
    the block that src first reached at the previous level, and a level
    pulls those bits along src's out-neighbours, so the result is laid out
    as [source, target] from the start. The rows run in falling out-degree
    order; slot k gathers the k-th out-neighbour of the sources that have
    one, a prefix of the rows, so a level gathers one row per edge.

    A block costs levels x (sum of out-degrees) row gathers of 32 bytes,
    and a block stops at the level that sees its last pair. Besides the
    (n, n) result, the working set is four (n, 32) bit sets, the block's
    (n, 256) distances, which are stored once, and one int64 per edge for
    the slots.
    """
    if not isinstance(n_nodes, (int, np.integer)):
        raise ValueError(f"bfs_distance_matrix takes an integer n_nodes, "
                         f"got {n_nodes!r}")
    indptr, indices = np.asarray(indptr), np.asarray(indices)
    _require_integers("bfs_distance_matrix", "indptr", indptr)
    _require_integers("bfs_distance_matrix", "indices", indices)
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
    # Sources in falling out-degree order, so that the sources with a k-th
    # out-neighbour are a prefix of the rows and slot k gathers for that
    # prefix only: one row per edge, no self-loop padding. Row p of every
    # bit set is node order[p]; slots name neighbours by row as well.
    order = np.argsort(-degree, kind="stable")
    row_of = np.empty(n, dtype=np.int64)
    row_of[order] = np.arange(n)
    degree, starts = degree[order], indptr[order]
    slots = []
    for k in range(int(degree[0]) if n else 0):
        count = np.count_nonzero(degree > k)
        slots.append(row_of[indices[starts[:count] + k]])

    # One block of targets at a time, each level of it before the next, so
    # that the block's bit sets stay in cache. Each level adds 1 to every
    # pair still unseen; unreached pairs are set to UNREACHABLE at the end.
    dist = np.empty((n, n), dtype=np.uint8)
    frontier = np.empty((n, _BFS_BLOCK_TARGETS // 8), dtype=np.uint8)
    reached, gathered, unseen = (np.empty_like(frontier) for _ in range(3))
    for lo in range(0, n, _BFS_BLOCK_TARGETS):
        hi = min(lo + _BFS_BLOCK_TARGETS, n)
        target = np.arange(hi - lo)
        frontier.fill(0)
        # np.packbits bit order; the bits past hi are never unseen.
        frontier[row_of[lo:hi], target >> 3] = 0x80 >> (target & 7)
        np.invert(frontier, out=unseen)
        unseen &= np.packbits(np.arange(_BFS_BLOCK_TARGETS) < hi - lo)
        block = np.zeros((n, hi - lo), dtype=np.uint8)
        for level in itertools.count(1):
            reached.fill(0)
            for slot in slots:
                rows = slice(0, slot.size)
                # mode="clip" writes straight into out, where the default
                # "raise" buffers it; it is exact only because every slot id
                # is a row in [0, n), which the range check on indices above
                # guarantees.
                np.take(frontier, slot, axis=0, out=gathered[rows],
                        mode="clip")
                np.bitwise_or(reached[rows], gathered[rows], out=reached[rows])
            np.bitwise_and(reached, unseen, out=reached)
            if not reached.any():
                break
            if level >= UNREACHABLE:
                raise ValueError(
                    f"bfs_distance_matrix stores path lengths up to "
                    f"{UNREACHABLE - 1} edges; this graph has longer ones"
                )
            block += np.unpackbits(unseen, axis=1, count=hi - lo)
            np.bitwise_xor(unseen, reached, out=unseen)
            if not unseen.any():
                break
            frontier, reached = reached, frontier
        unreached = np.unpackbits(unseen, axis=1, count=hi - lo).view(bool)
        np.copyto(block, UNREACHABLE, where=unreached)
        dist[order, lo:hi] = block
    return dist


# -- exhaustive string universe --------------------------------------------


def enumerate_strings(alphabet_size: int, max_len: int):
    """All strings of length 0..max_len, ordered by length then lexicographic.

    Returns (padded, lengths): padded is (n, max_len_eff) int64 padded with
    -1, lengths is (n,) int64. Row order defines the node ids used by
    edit_move_graph: the j-th string of length L is j written in base
    alphabet_size, first symbol most significant. Raises ValueError unless
    both arguments are non-negative integers.
    """
    _check_universe("enumerate_strings", alphabet_size, max_len)
    k = alphabet_size
    sizes = [k**L for L in range(max_len + 1)]
    lengths = np.repeat(np.arange(max_len + 1, dtype=np.int64), sizes)
    padded = np.full((lengths.size, max(max_len, 1)), -1, dtype=np.int64)
    for L in range(1, max_len + 1):
        j = np.arange(sizes[L], dtype=np.int64)[:, None]
        start = sum(sizes[:L])
        padded[start : start + sizes[L], :L] = j // k ** np.arange(L)[::-1] % k
    return padded, lengths


def _check_universe(kernel: str, alphabet_size, max_len) -> None:
    """Raise ValueError unless both sizes are non-negative integers."""
    for name, value in (("alphabet_size", alphabet_size),
                        ("max_len", max_len)):
        if not isinstance(value, (int, np.integer)) or value < 0:
            raise ValueError(f"{kernel} takes a non-negative integer "
                             f"{name}, got {value!r}")


def edit_move_graph(alphabet_size: int, max_len: int):
    """Edit-move graph over enumerate_strings(alphabet_size, max_len).

    Undirected by construction (every edit has an inverse edit inside the
    universe). Returns CSR (indptr, indices) plus the node count.

    A string of length L is node offset[L] + j, where j is the string read
    as a base-k number (k = alphabet_size, first symbol most significant),
    so each edit is arithmetic on j: with w = k**(L-1-p) the weight of
    position p, a substitution adds (c - s[p]) * w, a deletion joins the
    digits before p to the w-range after it, and an insertion splices c in
    at p. Edges are deduplicated and sorted as src * n + dst. Raises
    ValueError unless both arguments are non-negative integers.
    """
    _check_universe("edit_move_graph", alphabet_size, max_len)
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
    # Sort, then keep each key that differs from the one before it: the
    # same keys as np.unique, which takes a slower hash path here.
    edges = np.sort(np.concatenate(src) * n + np.concatenate(dst))
    edges = edges[np.diff(edges, prepend=-1) != 0]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(edges // n, minlength=n), out=indptr[1:])
    return indptr, edges % n, n
