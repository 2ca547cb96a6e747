"""Edit-distance kernels and the BFS edit-move oracle."""

import functools
import hashlib
import itertools
import re
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uttertune import kernels


def ref_edit_distance(a, b):
    """Plain-Python DP reference used only by these tests."""
    m, n = len(a), len(b)
    dp = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        dp[i][0] = i
    for j in range(n + 1):
        dp[0][j] = j
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            dp[i][j] = min(
                dp[i - 1][j] + 1,
                dp[i][j - 1] + 1,
                dp[i - 1][j - 1] + (a[i - 1] != b[j - 1]),
            )
    return dp[m][n]


def ref_bfs_matrix(indptr, indices, n):
    """One plain queue BFS per source, used only by these tests."""
    out = np.full((n, n), 255, dtype=np.uint8)
    for src in range(n):
        dist = {src: 0}
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for v in indices[indptr[u] : indptr[u + 1]]:
                if int(v) not in dist:
                    dist[int(v)] = dist[u] + 1
                    queue.append(int(v))
        for v, d in dist.items():
            out[src, v] = d
    return out


def in_adjacency_bfs_matrix(indptr, indices, n):
    """The bit-set BFS as it ran before it pulled along out-neighbours.

    Sources advance together; row v of the frontier holds one bit per
    source that first reached v at the previous level, gathered along v's
    in-neighbours (the CSR transposed), and the result is transposed at
    the end. Kept as the reference for bfs_distance_matrix.
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    heads = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    order = np.argsort(indices, kind="stable")
    targets = indices[order]
    in_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(targets, minlength=n), out=in_ptr[1:])
    max_deg = int(np.diff(in_ptr).max()) if n else 0
    in_adj = np.repeat(np.arange(n, dtype=np.int64)[:, None], max_deg, axis=1)
    in_adj[targets, np.arange(targets.size) - in_ptr[targets]] = heads[order]
    dist = np.full((n, n), 255, dtype=np.uint8)
    np.fill_diagonal(dist, 0)
    frontier = np.packbits(np.eye(n, dtype=bool), axis=1)
    unseen = ~frontier
    level = 0
    while True:
        level += 1
        reached = np.zeros_like(frontier)
        for k in range(max_deg):
            reached |= frontier[in_adj[:, k]]
        reached &= unseen
        if not reached.any():
            break
        unseen ^= reached
        new = np.unpackbits(reached, axis=1, count=n).view(bool)
        dist[new] = level
        frontier = reached
    return np.ascontiguousarray(dist.T)


def ref_enumerate_strings(alphabet_size, max_len):
    """The string universe built one row per itertools.product tuple, as
    enumerate_strings did before it worked on base-k indices. Kept as its
    reference."""
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


def ref_edit_move_graph(alphabet_size, max_len):
    """The edit-move graph built string by string through a dict of node
    ids, as edit_move_graph did before it worked on base-k indices. Kept
    as its reference."""
    ids = {(): 0}
    strings = [()]
    for L in range(1, max_len + 1):
        for combo in itertools.product(range(alphabet_size), repeat=L):
            ids[combo] = len(strings)
            strings.append(combo)
    n = len(strings)
    neighbor_lists = []
    for s in strings:
        L = len(s)
        nbrs = set()
        for p in range(L):
            for c in range(alphabet_size):
                if c != s[p]:
                    nbrs.add(ids[s[:p] + (c,) + s[p + 1 :]])
            nbrs.add(ids[s[:p] + s[p + 1 :]])
        if L < max_len:
            for p in range(L + 1):
                for c in range(alphabet_size):
                    nbrs.add(ids[s[:p] + (c,) + s[p:]])
        neighbor_lists.append(sorted(nbrs))
    indptr = np.cumsum([0] + [len(nbrs) for nbrs in neighbor_lists])
    indices = np.array([v for nbrs in neighbor_lists for v in nbrs],
                       dtype=np.int64)
    return indptr, indices, n


def universe_case(case):
    """A (3, 4) universe with its rows shuffled, or a (4, 4) universe with
    a fixed ~40% of its strings removed."""
    if case == "shuffled":
        padded, lengths = kernels.enumerate_strings(3, 4)
        order = np.random.default_rng(3).permutation(lengths.size)
    else:
        padded, lengths = kernels.enumerate_strings(4, 4)
        order = np.flatnonzero(
            np.random.default_rng(4).random(lengths.size) >= 0.4)
    return padded[order], lengths[order]


@functools.lru_cache(maxsize=None)
def universe_reference(case):
    """ref_edit_distance over every pair of universe_case(case)'s rows."""
    padded, lengths = universe_case(case)
    rows = [list(padded[i, : lengths[i]]) for i in range(lengths.size)]
    return np.array([[ref_edit_distance(a, b) for b in rows] for a in rows])


def csr(n, edges):
    """CSR (indptr, indices) of a directed graph given as (u, v) pairs."""
    edges = sorted(edges)
    indptr = np.zeros(n + 1, dtype=np.int64)
    for u, _ in edges:
        indptr[u + 1] += 1
    return np.cumsum(indptr), np.array([v for _, v in edges], dtype=np.int64)


class TestEditDistance:
    def test_known_pairs(self):
        cases = [
            (b"kitten", b"sitting", 3),
            (b"flaw", b"lawn", 2),
            (b"", b"", 0),
            (b"", b"abc", 3),
            (b"abc", b"", 3),
            (b"same", b"same", 0),
        ]
        for a, b, want in cases:
            got = kernels.edit_distance(np.frombuffer(a, dtype=np.uint8),
                                        np.frombuffer(b, dtype=np.uint8))
            assert got == want, (a, b)

    @given(
        st.lists(st.integers(0, 5), max_size=10),
        st.lists(st.integers(0, 5), max_size=10),
    )
    @settings(max_examples=150)
    def test_matches_reference(self, a, b):
        assert kernels.edit_distance(a, b) == ref_edit_distance(a, b)

    @given(
        st.lists(st.integers(0, 3), max_size=8),
        st.lists(st.integers(0, 3), max_size=8),
    )
    @settings(max_examples=100)
    def test_symmetry(self, a, b):
        assert kernels.edit_distance(a, b) == kernels.edit_distance(b, a)

    @given(st.lists(st.tuples(st.lists(st.integers(0, 3), max_size=9),
                              st.lists(st.integers(0, 3), max_size=9)),
                    min_size=1, max_size=6))
    @settings(max_examples=100)
    def test_batch_blocks_hold_every_prefix_distance(self, pairs):
        """One ragged batch, B = 1 included, empty members included: each
        pair's top-left block is its own table."""
        a_seqs, b_seqs = zip(*pairs)
        tables = kernels.edit_distance_tables(a_seqs, b_seqs)
        width_a = max(len(a) for a in a_seqs)
        width_b = max(len(b) for b in b_seqs)
        assert tables.shape == (len(pairs), width_a + 1, width_b + 1)
        assert tables.dtype == np.int32
        for table, (a, b) in zip(tables, pairs):
            for i in range(len(a) + 1):
                for j in range(len(b) + 1):
                    assert table[i, j] == ref_edit_distance(a[:i], b[:j])
            assert table[len(a), len(b)] == kernels.edit_distance(a, b)

    @pytest.mark.parametrize("a, match", [
        ([1.5], "takes integer ids, got dtype float64"),
        (5, r"takes 1-D id sequences, got shape \(\)"),
        ([[1, 2]], r"takes 1-D id sequences, got shape \(1, 2\)"),
    ])
    def test_malformed_sequence_rejected(self, a, match):
        kernel = kernels.edit_distance
        for args in ((a, [1]), ([1], a)):
            with pytest.raises(ValueError,
                               match=rf"^{kernel.__name__} {match}$"):
                kernel(*args)
        kernel = kernels.edit_distance_tables
        for args in (([[2], a], [[1], [1]]), ([[1]], [a])):
            with pytest.raises(ValueError,
                               match=rf"^{kernel.__name__} {match}$"):
                kernel(*args)

    def test_batch_needs_one_b_per_a(self):
        with pytest.raises(ValueError, match=r"^edit_distance_tables takes "
                                             r"as many b sequences as a "
                                             r"sequences, got 2 and 1$"):
            kernels.edit_distance_tables([[1], [2]], [[1]])

    def test_empty_sequences_accepted(self):
        # np.asarray([]) is float64; CER passes [] for an empty hypothesis.
        assert kernels.edit_distance([], []) == 0
        assert kernels.edit_distance([], [3, 4]) == 2
        assert kernels.edit_distance_tables([[7]], [[]])[0].tolist() == [
            [0], [1]]
        assert kernels.edit_distance_tables([], []).shape == (0, 1, 1)


class TestEditDistanceMatrix:
    def test_matches_single_pair_kernel(self):
        rng = np.random.default_rng(7)
        n, width = 25, 5
        lengths = rng.integers(0, width + 1, size=n)
        padded = np.full((n, width), -1, dtype=np.int64)
        for i, L in enumerate(lengths):
            padded[i, :L] = rng.integers(0, 4, size=L)
        mat = kernels.edit_distance_matrix(padded, lengths)
        for i in range(n):
            for j in range(n):
                want = kernels.edit_distance(
                    padded[i, : lengths[i]], padded[j, : lengths[j]]
                )
                assert mat[i, j] == want

    @pytest.mark.parametrize("block_cells", [None, 1, 7, 64])
    def test_matches_reference_on_mixed_lengths(self, block_cells,
                                                monkeypatch):
        # Lengths 0..12 in one table, with repeated rows: unlike the
        # enumerated universe, the table is not closed under prefixes.
        # Small row chunks split each block of trie depths, the last chunk
        # short.
        if block_cells is not None:
            monkeypatch.setattr(kernels, "_DP_BLOCK_CELLS", block_cells)
        rng = np.random.default_rng(11)
        n, width = 40, 12
        lengths = rng.integers(0, width + 1, size=n)
        padded = np.full((n, width), -1, dtype=np.int64)
        for i, L in enumerate(lengths):
            padded[i, :L] = rng.integers(0, 6, size=L)
        for dst, src in ((5, 3), (17, 3), (30, 12)):
            padded[dst], lengths[dst] = padded[src], lengths[src]
        mat = kernels.edit_distance_matrix(padded, lengths)
        assert mat.dtype == np.uint8 and mat.shape == (n, n)
        rows = [list(padded[i, : lengths[i]]) for i in range(n)]
        want = [[ref_edit_distance(a, b) for b in rows] for a in rows]
        assert np.array_equal(mat, np.array(want))

    @pytest.mark.parametrize("block_cells", [1, 7, 64])
    @pytest.mark.parametrize("rows, pad", [
        # No two rows share a first symbol.
        (["a", "bc", "dea", "fgab", ""], "-"),
        # Neither row is a prefix of the other, nor is any of their
        # prefixes a row: the trie has nodes no output row reads.
        (["abc", "abd"], "-"),
        (["abd", "abc", "abd"], "-"),
        ([""], "-"),
        # Pads equal real symbols: only positions below a row's length
        # may enter the trie.
        (["ab", "a", "aab", "ba", "", "b"], "a"),
        (["ab", "a", "aab", "ba", "", "b"], "b"),
    ])
    def test_trie_shapes_match_reference(self, rows, pad, block_cells,
                                         monkeypatch):
        monkeypatch.setattr(kernels, "_DP_BLOCK_CELLS", block_cells)
        width = max(len(r) for r in rows) + 1
        padded = np.array([[ord(c) for c in r.ljust(width, pad)]
                           for r in rows])
        lengths = [len(r) for r in rows]
        mat = kernels.edit_distance_matrix(padded, lengths)
        want = [[ref_edit_distance(a, b) for b in rows] for a in rows]
        assert mat.dtype == np.uint8 and mat.flags.c_contiguous
        assert mat.tolist() == want

    @pytest.mark.parametrize("block_cells", [None, 1, 7, 64])
    @pytest.mark.parametrize("case, gathers", [
        # Trie order is not row order, so the rows' cells are gathered at
        # the end, but every parent group is still one range of ids.
        ("shuffled", False),
        # Some first symbol's suffix parents skip the removed strings'
        # suffixes, so they are gathered instead of sliced.
        ("subsampled", True),
    ])
    def test_universe_variants_match_reference(self, case, gathers,
                                               block_cells, monkeypatch):
        if block_cells is not None:
            monkeypatch.setattr(kernels, "_DP_BLOCK_CELLS", block_cells)
        gathered = []
        slice_if_range = kernels._slice_if_range

        def recording(ids):
            out = slice_if_range(ids)
            gathered.append(not isinstance(out, slice))
            return out

        monkeypatch.setattr(kernels, "_slice_if_range", recording)
        mat = kernels.edit_distance_matrix(*universe_case(case))
        assert mat.dtype == np.uint8 and mat.flags.c_contiguous
        assert np.array_equal(mat, universe_reference(case))
        assert any(gathered) == gathers

    def test_longest_allowed_strings(self):
        L = kernels.MAX_MATRIX_LEN
        padded = np.full((3, L), -1, dtype=np.int64)
        padded[0] = 0
        padded[1] = 1
        mat = kernels.edit_distance_matrix(padded, np.array([L, L, 0]))
        assert mat.tolist() == [[0, L, L], [L, 0, L], [L, L, 0]]

    def test_string_too_long_for_uint8_rejected(self):
        padded = np.full((2, 300), -1, dtype=np.int64)
        padded[0] = 0
        with pytest.raises(ValueError, match="254"):
            kernels.edit_distance_matrix(padded, np.array([300, 0]))

    def test_symbols_beyond_uint8_codes(self):
        # 400 distinct symbols, negative ones and ones >= 2**40 among them,
        # so the dense codes need uint16; pads take a value of their own.
        rng = np.random.default_rng(5)
        pool = np.concatenate([np.arange(-150, 150),
                               2**40 + np.arange(100) * 2**20])
        n, width = 80, 9
        lengths = rng.integers(0, width + 1, size=n)
        lengths[:40] = width
        padded = np.full((n, width), -7, dtype=np.int64)
        # The first 40 rows share no symbol; the rest draw with repeats.
        padded[:40] = rng.permutation(pool)[: 40 * width].reshape(40, width)
        for i in range(40, n):
            padded[i, : lengths[i]] = rng.choice(pool, size=lengths[i])
        # Two rows whose symbols all have low byte 0: a uint8 cast of the
        # raw values would make them equal.
        padded[1, :4], lengths[1] = [0, 256, 2**40, -256], 4
        padded[2, :4], lengths[2] = [256, 0, -256, 2**40 + 2**20], 4
        assert np.unique(padded).size > 256
        mat = kernels.edit_distance_matrix(padded, lengths)
        rows = [list(padded[i, : lengths[i]]) for i in range(n)]
        want = [[ref_edit_distance(a, b) for b in rows] for a in rows]
        assert np.array_equal(mat, np.array(want))

    @pytest.mark.parametrize("lengths, match", [
        ([2], "one length per row"),
        ([2, 1, 0], "one length per row"),
        ([[2, 1]], "one length per row"),
        ([-1, 2], r"lengths in \[0, 3\], got -1\.\.2"),
        ([5, 2], r"lengths in \[0, 3\], got 2\.\.5"),
        ([2, 4], r"lengths in \[0, 3\], got 2\.\.4"),
    ])
    def test_bad_lengths_rejected(self, lengths, match):
        padded = np.array([[0, 1, 2], [1, 2, -1]])
        with pytest.raises(ValueError, match=match):
            kernels.edit_distance_matrix(padded, lengths)

    @pytest.mark.parametrize("shape", [(3,), (2, 3, 1)])
    def test_table_not_2d_rejected(self, shape):
        with pytest.raises(ValueError, match=re.escape(
                f"edit_distance_matrix needs a (n, width) table, "
                f"got shape {shape}")):
            kernels.edit_distance_matrix(np.zeros(shape), [0, 0])

    @pytest.mark.parametrize("padded, lengths, match", [
        ([[2.0, 1.0], [1.0, 0.0]], [2, 1],
         "takes integer table values, got dtype float64"),
        ([[2, 1], [1, 0]], [2.7, 1],
         "takes integer lengths, got dtype float64"),
        ([[2, 1], [1, 0]], [2.0, 1.0],
         "takes integer lengths, got dtype float64"),
    ])
    def test_float_input_rejected(self, padded, lengths, match):
        with pytest.raises(ValueError,
                           match=rf"^edit_distance_matrix {match}$"):
            kernels.edit_distance_matrix(padded, lengths)

    def test_empty_table(self):
        mat = kernels.edit_distance_matrix(np.zeros((0, 3), dtype=np.int64),
                                           [])
        assert mat.dtype == np.uint8 and mat.shape == (0, 0)


class TestBfsOracle:
    def test_oracle_equals_dp_on_small_universe(self):
        padded, lengths = kernels.enumerate_strings(2, 3)
        indptr, indices, n = kernels.edit_move_graph(2, 3)
        assert n == padded.shape[0] == 15
        oracle = kernels.bfs_distance_matrix(indptr, indices, n)
        dp = kernels.edit_distance_matrix(padded, lengths)
        assert np.array_equal(oracle, dp)

    def test_metric_axioms(self):
        indptr, indices, n = kernels.edit_move_graph(3, 3)
        d = kernels.bfs_distance_matrix(indptr, indices, n).astype(np.int64)
        assert (np.diag(d) == 0).all()
        assert np.array_equal(d, d.T)
        # Triangle inequality on a random node sample.
        rng = np.random.default_rng(0)
        for _ in range(200):
            i, j, k = rng.integers(0, n, size=3)
            assert d[i, j] <= d[i, k] + d[k, j]

    def test_all_reachable(self):
        indptr, indices, n = kernels.edit_move_graph(2, 2)
        d = kernels.bfs_distance_matrix(indptr, indices, n)
        assert (d != 255).all()

    @pytest.mark.parametrize("n", [2, 7, 9, 16, 61])
    def test_matches_queue_bfs_on_directed_graphs(self, n):
        rng = np.random.default_rng(n)
        for p in (0.05, 0.2):
            adj = rng.random((n, n)) < p
            indptr, indices = csr(n, zip(*np.nonzero(adj)))
            got = kernels.bfs_distance_matrix(indptr, indices, n)
            assert got.dtype == np.uint8 and got.shape == (n, n)
            assert np.array_equal(got, ref_bfs_matrix(indptr, indices, n))

    def test_direction_of_edges_is_kept(self):
        indptr, indices = csr(3, [(0, 1), (1, 2)])
        d = kernels.bfs_distance_matrix(indptr, indices, 3)
        assert d.tolist() == [[0, 1, 2], [255, 0, 1], [255, 255, 0]]

    def test_isolated_nodes_stay_unreachable(self):
        # Nodes 3, 6 and 10 have no edges; 11 nodes is not a multiple of 8.
        edges = [(0, 1), (1, 0), (1, 2), (2, 4), (4, 5), (5, 0), (7, 8),
                 (8, 9), (9, 7)]
        indptr, indices = csr(11, edges)
        d = kernels.bfs_distance_matrix(indptr, indices, 11)
        assert np.array_equal(d, ref_bfs_matrix(indptr, indices, 11))
        for v in (3, 6, 10):
            assert d[v].tolist() == [255] * v + [0] + [255] * (10 - v)
            assert (np.delete(d[:, v], v) == 255).all()

    def test_single_node_without_edges(self):
        d = kernels.bfs_distance_matrix([0, 0], [], 1)
        assert d.dtype == np.uint8 and d.tolist() == [[0]]

    def test_empty_graph(self):
        d = kernels.bfs_distance_matrix([0], [], 0)
        assert d.dtype == np.uint8 and d.shape == (0, 0)

    def test_longest_allowed_path(self):
        n = 255
        indptr, indices = csr(n, [(u, u + 1) for u in range(n - 1)])
        d = kernels.bfs_distance_matrix(indptr, indices, n)
        assert d[0, n - 1] == 254 and d[n - 1, 0] == 255

    @pytest.mark.parametrize("n", [1, 8, 13, 40, 97, 300, 777])
    def test_matches_in_adjacency_form(self, n):
        # Random directed graphs; some nodes lose every out-edge (sinks) and
        # some lose every edge (isolated). 300 and 777 nodes take two and
        # four blocks of 256 targets, the last one partial; at p = 2 / n the
        # graphs are sparse, with long paths.
        rng = np.random.default_rng(100 + n)
        for p in (0.03, 0.1, 0.3, 2 / n):
            adj = rng.random((n, n)) < p
            np.fill_diagonal(adj, False)
            adj[rng.random(n) < 0.2] = False
            isolated = rng.random(n) < 0.1
            adj[isolated] = False
            adj[:, isolated] = False
            indptr, indices = csr(n, zip(*np.nonzero(adj)))
            got = kernels.bfs_distance_matrix(indptr, indices, n)
            assert np.array_equal(
                got, in_adjacency_bfs_matrix(indptr, indices, n))

    def test_highest_out_degree_on_the_largest_id(self):
        # Sources are reordered by falling out-degree; here that order puts
        # the last node first.
        n = 530
        edges = [(u, u + 1) for u in range(0, n - 2, 2)]
        edges += [(n - 1, v) for v in range(0, n - 1, 7)]
        indptr, indices = csr(n, edges)
        assert np.argmax(np.diff(indptr)) == n - 1
        d = kernels.bfs_distance_matrix(indptr, indices, n)
        assert np.array_equal(d, in_adjacency_bfs_matrix(indptr, indices, n))
        assert d[n - 1, 1] == 2 and d[n - 1, 0] == 1 and d[1, n - 1] == 255

    def test_edgeless_graph_above_one_block(self):
        n = 600
        d = kernels.bfs_distance_matrix(np.zeros(n + 1, np.int64), [], n)
        want = np.full((n, n), 255, dtype=np.uint8)
        np.fill_diagonal(want, 0)
        assert np.array_equal(d, want)

    @pytest.mark.parametrize("indptr, indices, n, match", [
        ([0, 1], [1], 2, "indptr of length n_nodes"),
        ([0, 1, 1, 1], [1], 2, "indptr of length n_nodes"),
        ([[0, 1, 1]], [1], 2, "indptr of length n_nodes"),
        ([0, 1, 1], [1], -1, "indptr of length n_nodes"),
        ([0, 2, 1], [1, 0], 2, "non-decreasing"),
        ([0, 1, 1], [1, 0], 2, "non-decreasing"),
        ([0, 1, 3], [1, 0], 2, "non-decreasing"),
        ([1, 1, 2], [1, 0], 2, "non-decreasing"),
    ])
    def test_malformed_indptr_rejected(self, indptr, indices, n, match):
        with pytest.raises(ValueError, match=match):
            kernels.bfs_distance_matrix(indptr, indices, n)

    @pytest.mark.parametrize("indptr, indices, n, what", [
        ([0, 1.0, 1], [1], 2, "indptr"),
        ([0, 1, 1], [1.7], 2, "indices"),
        ([0, 1, 1], [1], 2.9, "n_nodes"),
        ([0, 1, 1], [1], np.float64(2.0), "n_nodes"),
        ([0, 1.0, 1], [1.7], 2.9, "n_nodes"),
    ])
    def test_non_integer_csr_rejected(self, indptr, indices, n, what):
        with pytest.raises(ValueError, match=f"takes (an )?integer {what}"):
            kernels.bfs_distance_matrix(indptr, indices, n)

    @pytest.mark.parametrize("indices", [[1, 2], [-1, 0]])
    def test_node_id_out_of_range_rejected(self, indices):
        with pytest.raises(ValueError, match=r"node ids in \[0, 2\)"):
            kernels.bfs_distance_matrix([0, 1, 2], indices, 2)

    def test_path_too_long_for_uint8_rejected(self):
        n = 300
        edges = [(u, u + 1) for u in range(n - 1)]
        edges += [(v, u) for u, v in edges]
        indptr, indices = csr(n, edges)
        with pytest.raises(ValueError, match="254"):
            kernels.bfs_distance_matrix(indptr, indices, n)


class TestCheck7Matrices:
    # Both matrices over check 7's (4, 6) universe, recorded from the DP on
    # raw int64 symbols and the in-adjacency BFS that these kernels replace.
    SHA256 = "8c5729740a5925a3d59cb9a4c9410a56015a1f762319f5da2d1733d27aa896b8"

    def test_dp_matrix_bytes_pinned(self):
        padded, lengths = kernels.enumerate_strings(4, 6)
        mat = kernels.edit_distance_matrix(padded, lengths)
        assert mat.dtype == np.uint8 and mat.flags.c_contiguous
        assert hashlib.sha256(mat.tobytes()).hexdigest() == self.SHA256

    def test_bfs_matrix_bytes_pinned(self):
        mat = kernels.bfs_distance_matrix(*kernels.edit_move_graph(4, 6))
        assert mat.dtype == np.uint8 and mat.flags.c_contiguous
        assert hashlib.sha256(mat.tobytes()).hexdigest() == self.SHA256


class TestCheck7Memory:
    # Bytes traced by tracemalloc while each kernel runs, over the n**2
    # bytes of its output. The DP's trie is its rows, so it needs no
    # second matrix. Beside dist, the BFS keeps one row per edge for its
    # slots, and for one block of 256 targets at a time four n x 32-byte
    # bit sets and the block's n x 256 distances with their unpacked bits.
    @staticmethod
    def traced_peak(kernel, *args):
        tracemalloc.start()
        try:
            out = kernel(*args)
            return tracemalloc.get_traced_memory()[1] / out.size
        finally:
            tracemalloc.stop()

    def test_dp_peak(self):
        padded, lengths = kernels.enumerate_strings(4, 6)
        assert self.traced_peak(kernels.edit_distance_matrix,
                                padded, lengths) < 1.1

    def test_bfs_peak(self):
        graph = kernels.edit_move_graph(4, 6)
        assert self.traced_peak(kernels.bfs_distance_matrix, *graph) < 1.3


class TestUniverse:
    def test_string_count(self):
        padded, lengths = kernels.enumerate_strings(4, 6)
        assert padded.shape[0] == (4**7 - 1) // 3 == 5461
        counts = np.bincount(lengths, minlength=7)
        assert list(counts) == [4**L for L in range(7)]

    def test_ordering_deterministic(self):
        a, la = kernels.enumerate_strings(3, 3)
        b, lb = kernels.enumerate_strings(3, 3)
        assert np.array_equal(a, b) and np.array_equal(la, lb)

    def test_graph_is_symmetric(self):
        indptr, indices, n = kernels.edit_move_graph(3, 3)
        edges = set()
        for u in range(n):
            for v in indices[indptr[u] : indptr[u + 1]]:
                edges.add((u, int(v)))
        assert all((v, u) in edges for (u, v) in edges)

    @pytest.mark.parametrize("alphabet_size, max_len",
                             [(4, 6), (2, 3), (3, 4), (1, 3), (5, 3), (4, 1),
                              (3, 0), (1, 0), (0, 2)])
    def test_strings_match_product_builder(self, alphabet_size, max_len):
        got = kernels.enumerate_strings(alphabet_size, max_len)
        want = ref_enumerate_strings(alphabet_size, max_len)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)

    @pytest.mark.parametrize("kernel", [kernels.enumerate_strings,
                                        kernels.edit_move_graph])
    @pytest.mark.parametrize("alphabet_size, max_len, name, value", [
        (-1, 2, "alphabet_size", "-1"),
        (2, -1, "max_len", "-1"),
        (2.0, 1, "alphabet_size", "2.0"),
    ])
    def test_bad_sizes_rejected(self, kernel, alphabet_size, max_len, name,
                                value):
        with pytest.raises(ValueError, match=re.escape(
                f"{kernel.__name__} takes a non-negative integer {name}, "
                f"got {value}")):
            kernel(alphabet_size, max_len)

    @pytest.mark.parametrize("alphabet_size, max_len",
                             [(4, 6), (2, 3), (3, 4), (1, 3), (5, 3), (4, 1),
                              (3, 0), (1, 0)])
    def test_graph_matches_dict_builder(self, alphabet_size, max_len):
        indptr, indices, n = kernels.edit_move_graph(alphabet_size, max_len)
        want_ptr, want_indices, want_n = ref_edit_move_graph(alphabet_size,
                                                             max_len)
        assert n == want_n
        assert indptr.dtype == indices.dtype == np.int64
        assert np.array_equal(indptr, want_ptr)
        assert np.array_equal(indices, want_indices)

    @pytest.mark.parametrize("alphabet_size, max_len",
                             [(0, 3), (1, 4), (2, 3), (3, 4), (4, 6)])
    def test_edge_dedup_matches_np_unique(self, monkeypatch, alphabet_size,
                                          max_len):
        # The raw src * n + dst keys, duplicates included, are the one array
        # edit_move_graph sorts; its edges must be np.unique of them.
        raw, sort = [], np.sort

        def recording_sort(keys):
            raw.append(keys.copy())
            return sort(keys)

        monkeypatch.setattr(kernels.np, "sort", recording_sort)
        indptr, indices, n = kernels.edit_move_graph(alphabet_size, max_len)
        monkeypatch.undo()
        (keys,) = raw
        got = np.repeat(np.arange(n), np.diff(indptr)) * n + indices
        assert np.array_equal(got, np.unique(keys))
        if alphabet_size and max_len > 1:
            assert keys.size > got.size

    def test_insertions_capped_at_max_len(self):
        indptr, indices, n = kernels.edit_move_graph(2, 2)
        padded, lengths = kernels.enumerate_strings(2, 2)
        # Nodes at max length have no longer neighbors.
        for u in range(n):
            if lengths[u] == 2:
                for v in indices[indptr[u] : indptr[u + 1]]:
                    assert lengths[v] <= 2


class TestBackendSelection:
    def test_active_backend_is_known(self):
        assert kernels.active_backend() == "numpy"
