import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdse.coarsen import Partition, build_hierarchy, permute_hierarchy
from hdse import distance, graph
from hdse.distance import (UNREACHABLE, fold_rows, ghd, hdse, high_level_hdse,
                           rank_ids, read_tensor, spd_all_pairs,
                           tensor_to_json, tuple_keys, write_tensor)
from hdse.graph import GraphValidationError, NodePermutation, make_graph
from hdse.refine import cycle_graph


def floyd_warshall(g):
    """Independent O(n^3) all-pairs oracle."""
    n = g.num_nodes
    inf = np.inf
    d = np.full((n, n), inf)
    np.fill_diagonal(d, 0.0)
    for u, v in g.edge_array():
        d[u, v] = d[v, u] = 1.0
    for k in range(n):
        d = np.minimum(d, d[:, k:k + 1] + d[k:k + 1, :])
    out = np.where(np.isinf(d), UNREACHABLE, d).astype(np.int32)
    return out


def random_graph(n, p, seed):
    rng = np.random.default_rng(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    return make_graph(n, edges)


def two_cliques_bridge(k=4):
    edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
    edges += [(k + i, k + j) for i in range(k) for j in range(i + 1, k)]
    edges.append((0, k))
    return make_graph(2 * k, edges)


class TestSpd:
    def test_p3(self):
        g = make_graph(3, [(0, 1), (1, 2)])
        assert spd_all_pairs(g)[0, 2] == 2

    def test_disconnected_pair(self):
        g = make_graph(4, [(0, 1), (2, 3)])
        assert spd_all_pairs(g)[0, 2] == UNREACHABLE

    def test_pair_limit(self, monkeypatch):
        # refused past MAX_PAIRS node pairs, whichever level or encoder
        h = build_hierarchy(random_graph(6, 0.5, 3), "hem", 1)
        monkeypatch.setattr(graph, "MAX_PAIRS", 36)
        spd_all_pairs(h.levels[0])
        hdse(h)
        high_level_hdse(h, 1)
        monkeypatch.setattr(graph, "MAX_PAIRS", 35)
        for run in (spd_all_pairs, hdse):
            with pytest.raises(MemoryError, match="limit of 35"):
                run(h.levels[0] if run is spd_all_pairs else h)
        monkeypatch.setattr(graph, "MAX_PAIRS", 6 * h.levels[1].num_nodes - 1)
        with pytest.raises(MemoryError, match="hdse needs"):
            high_level_hdse(h, 1)

    def test_matches_floyd_warshall(self):
        g = random_graph(50, 0.1, 7)
        np.testing.assert_array_equal(spd_all_pairs(g),
                                      floyd_warshall(g))


def assert_spd_exact(g):
    d = spd_all_pairs(g)
    assert d.dtype == np.int32
    np.testing.assert_array_equal(d, floyd_warshall(g))


def path_edges(n):
    return [(i, i + 1) for i in range(n - 1)]


class TestSpdKernelOracle:
    """The bit-packed multi-source BFS against Floyd-Warshall, with sizes on
    both sides of a 64-bit word and nodes of degree zero, which ``reduceat``
    over CSR segments would mishandle."""

    @pytest.mark.parametrize("n", [0, 1, 2, 63, 64, 65, 127, 128, 129])
    def test_word_boundary_sizes(self, n):
        assert_spd_exact(make_graph(n, []))
        assert_spd_exact(make_graph(n, path_edges(n)))
        assert_spd_exact(random_graph(n, 0.05, n))

    @pytest.mark.parametrize("n", [2, 64, 65, 129])
    def test_isolated_first_and_last_node(self, n):
        inner = [(u + 1, v + 1) for u, v in path_edges(n - 2)]
        assert_spd_exact(make_graph(n, inner))  # both ends isolated
        assert_spd_exact(make_graph(n, path_edges(n - 1)))  # last isolated
        assert_spd_exact(make_graph(n, [(u + 1, v + 1)  # first isolated
                                        for u, v in path_edges(n - 1)]))

    def test_isolated_nodes_between_components(self):
        edges = [(1, 2), (2, 3), (5, 6), (66, 67), (67, 68), (68, 66)]
        assert_spd_exact(make_graph(70, edges))

    def test_several_components(self):
        comp = np.digitize(np.arange(130), [40, 90])
        g = make_graph(130, [(u, v) for u, v in random_graph(130, 0.2, 3)
                             .edge_array() if comp[u] == comp[v]])
        assert_spd_exact(g)
        assert spd_all_pairs(g)[0, 100] == UNREACHABLE

    def test_complete_graph(self):
        n = 70
        g = make_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
        assert_spd_exact(g)
        assert spd_all_pairs(g).max() == 1

    def test_path_longer_than_a_word(self):
        g = make_graph(130, path_edges(130))
        assert_spd_exact(g)
        assert spd_all_pairs(g)[0, 129] == 129

    @given(st.integers(0, 140),
           st.lists(st.tuples(st.integers(0, 139), st.integers(0, 139)),
                    max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_random_edge_lists(self, n, pairs):
        edges = [(u, v) for u, v in pairs if u < n and v < n and u != v]
        assert_spd_exact(make_graph(n, edges))


def mask_writing_spd(g):
    """The former kernel: the same bitset BFS, writing each hop through a mask."""
    n = g.num_nodes
    out = np.full((n, n), UNREACHABLE, dtype=np.int32)
    np.fill_diagonal(out, 0)
    src = np.arange(n)
    reached = np.zeros((n, (n + 63) // 64), dtype=np.uint64)
    reached[src, src >> 6] = 1 << (src & 63).astype(np.uint64)
    frontier = reached.copy()
    has_nbrs = np.diff(g.indptr) > 0
    starts = g.indptr[:-1][has_nbrs]
    for d in range(1, n):
        nxt = np.zeros_like(frontier)
        nxt[has_nbrs] = np.bitwise_or.reduceat(frontier[g.indices], starts,
                                               axis=0)
        frontier = nxt & ~reached
        if not frontier.any():
            break
        reached |= frontier
        new = np.unpackbits(frontier.astype("<u8", copy=False).view(np.uint8),
                            axis=1, count=n, bitorder="little")
        out[new.view(bool)] = d
    return out


def assert_same_as_mask_writing(g):
    got, want = spd_all_pairs(g), mask_writing_spd(g)
    assert got.dtype == want.dtype == np.int32
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


WORD_SIZES = [0, 1, 63, 64, 65, 129]


class TestHopCountingKernel:
    """The hop-counting kernel equals the mask-writing one exactly."""

    @pytest.mark.parametrize("n", WORD_SIZES)
    def test_edgeless_path_and_split(self, n):
        assert_same_as_mask_writing(make_graph(n, []))
        assert_same_as_mask_writing(make_graph(n, path_edges(n)))
        half = n // 2  # two paths: every cross pair is unreachable
        split = [(u, v) for u, v in path_edges(n) if (u < half) == (v < half)]
        assert_same_as_mask_writing(make_graph(n, split))

    @given(st.one_of(st.sampled_from(WORD_SIZES), st.integers(0, 140)),
           st.lists(st.tuples(st.integers(0, 139), st.integers(0, 139)),
                    max_size=300),
           st.integers(0, 140), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_random_graphs(self, n, pairs, cut, split):
        # with split, no edge crosses the cut, so the graph is disconnected
        # whenever 0 < cut < n
        edges = [(u, v) for u, v in pairs if u < n and v < n and u != v
                 and not (split and (u < cut) != (v < cut))]
        assert_same_as_mask_writing(make_graph(n, edges))


class TestHopCountWidening:
    """Hops are counted in uint8 and widened to int32 once the search
    passes 255 hops; isolated nodes read the all-zero sentinel row."""

    @pytest.mark.parametrize("n", [255, 256, 257, 258])
    def test_paths_around_255_hops(self, n):
        g = make_graph(n, path_edges(n))
        i = np.arange(n)
        assert_same_bytes(spd_all_pairs(g),
                          np.abs(i[:, None] - i).astype(np.int32))
        assert_same_as_mask_writing(g)

    def test_cycle_of_600(self):
        g = cycle_graph(600)
        i = np.arange(600)
        gap = np.abs(i[:, None] - i)
        assert_same_bytes(spd_all_pairs(g),
                          np.minimum(gap, 600 - gap).astype(np.int32))
        assert_same_as_mask_writing(g)

    @pytest.mark.parametrize("n", [64, 65])
    @pytest.mark.parametrize("isolated", ["first", "last"])
    def test_isolated_end_node(self, n, isolated):
        shift = isolated == "first"
        edges = [(u + shift, v + shift) for u, v in path_edges(n - 1)]
        edges += [(1 + shift, n - 2 + shift)]  # a chord: not only a path
        assert_same_as_mask_writing(make_graph(n, edges))


def clipped(d, clip):
    """The former ``_level_codes`` after its search: int32 distances
    clipped, unreachable pairs marked ``clip + 1``, then cast to uint8."""
    codes = np.minimum(d, clip)  # UNREACHABLE (-1) stays below every clip
    codes[d == UNREACHABLE] = clip + 1
    return codes.astype(np.uint8)


def assert_clipped_codes_exact(g):
    d = spd_all_pairs(g)
    for clip in (1, 2, 30, 254):
        assert_same_bytes(spd_all_pairs(g, clip), clipped(d, clip))


CLIPPED_CASES = {
    "random": lambda: random_graph(80, 0.05, 4),
    "edgeless": lambda: make_graph(70, []),
    "disconnected": lambda: make_graph(130, [
        (u, v) for u, v in random_graph(130, 0.05, 3).edge_array()
        if (u < 60) == (v < 60)]),
    "path of 1000": lambda: make_graph(1000, path_edges(1000)),
    "two paths of 500": lambda: make_graph(1000, path_edges(500) + [
        (u + 500, v + 500) for u, v in path_edges(500)]),
    "cycle of 2000": lambda: cycle_graph(2000),
}


class TestClippedSpd:
    """``spd_all_pairs`` with a clip stops after ``clip`` hops and returns
    uint8 codes byte-equal to clipping the int32 distances; pairs still
    unreached at the clip are told apart by their components."""

    @pytest.mark.parametrize("case", CLIPPED_CASES)
    def test_codes_equal_the_clipped_distances(self, case):
        assert_clipped_codes_exact(CLIPPED_CASES[case]())

    @given(st.integers(0, 140),
           st.lists(st.tuples(st.integers(0, 139), st.integers(0, 139)),
                    max_size=300),
           st.integers(0, 140), st.sampled_from([1, 2, 3, 5, 254]),
           st.integers(0, 2 ** 16))
    @settings(max_examples=100, deadline=None)
    def test_random_graphs(self, n, pairs, cut, clip, seed):
        # no edge crosses the cut, and node ids are shuffled, so the
        # component labels start far from their minima
        ids = np.random.default_rng(seed).permutation(max(n, 1))
        edges = [(ids[u], ids[v]) for u, v in pairs
                 if u < n and v < n and u != v and (u < cut) == (v < cut)]
        g = make_graph(n, edges)
        d = floyd_warshall(g)
        assert_same_bytes(spd_all_pairs(g), d)
        assert_same_bytes(spd_all_pairs(g, clip), clipped(d, clip))

    @pytest.mark.parametrize("clip", [0, 255, -1])
    def test_refuses_bad_clip(self, clip):
        with pytest.raises(GraphValidationError, match="clip must be in"):
            spd_all_pairs(make_graph(3, [(0, 1)]), clip)


def folded_keys(rows):
    """The former ``tuple_keys``: folded int64 keys, re-densified by sort."""
    keys = np.zeros(len(rows), dtype=np.int64)
    bound = 1
    for col in rows.T:
        col = col.astype(np.int64)
        lo = col.min(initial=0)
        span = int(col.max(initial=0) - lo) + 1
        keys = keys * span + (col - lo)
        bound *= span
        if bound > distance._KEY_LIMIT:
            uniq, keys = np.unique(keys, return_inverse=True)
            bound = len(uniq)
    return keys


def key_bound(rows):
    """Bound of the folded key without re-densifying: the product of spans."""
    rows = rows.astype(np.int64)
    lo = np.minimum(rows.min(axis=0, initial=0), 0)
    return np.prod((np.maximum(rows.max(axis=0, initial=0), 0) - lo + 1)
                   .astype(float))


def assert_tuple_ids_exact(rows):
    ids, count = tuple_keys(rows)
    assert ids.shape == (len(rows),)
    assert np.array_equal(np.unique(ids), np.arange(count))
    want = np.unique(folded_keys(rows), return_inverse=True)[1]
    assert np.array_equal(ids, want.ravel())
    if len(rows):  # ids number the rows in lexicographic order
        lex = np.unique(rows, axis=0, return_inverse=True)[1]
        assert np.array_equal(ids, lex.ravel())


class TestTupleKeys:
    def test_bucket_branch(self):
        # three columns spanning 32 values each, more rows than keys
        rows = np.random.default_rng(0).integers(0, 32, (40_000, 3))
        assert key_bound(rows) <= len(rows)
        assert_tuple_ids_exact(rows)

    def test_sort_branch_wide_columns(self):
        rows = np.random.default_rng(1).integers(-1, 10**4, (500, 2))
        assert len(rows) < key_bound(rows) <= distance._KEY_LIMIT
        assert_tuple_ids_exact(rows)

    def test_sort_branch_crosses_key_limit(self):
        # rows 0 and 1 differ in column 0 only, which a wrapped key would drop
        rows = np.random.default_rng(2).integers(0, 256, (300, 13))
        rows[1] = rows[0]
        rows[1, 0] = (rows[0, 0] + 1) % 256
        assert key_bound(rows) > distance._KEY_LIMIT
        assert_tuple_ids_exact(rows)

    @pytest.mark.parametrize("shape", [(0, 3), (5, 0), (0, 0), (1, 1)])
    def test_degenerate_shapes(self, shape):
        assert_tuple_ids_exact(np.zeros(shape, dtype=np.uint8))

    @pytest.mark.parametrize("dtype, lo, hi", [
        (np.uint64, 0, 256), (np.uint64, 2 ** 30, 2 ** 30 + 300),
        (np.int8, -128, 128), (np.int8, -5, 0)])
    @pytest.mark.parametrize("cols", [1, 3, 13])
    def test_uint64_and_negative_int8_codes(self, dtype, lo, hi, cols):
        # the in-place fold casts uint64 columns before they meet the int64
        # keys and shifts negative int8 columns by their minimum; the ids
        # must equal those of the copying fold, ``folded_keys``
        rows = np.random.default_rng(cols).integers(lo, hi, (400, cols),
                                                    dtype=dtype)
        before = rows.copy()
        assert_tuple_ids_exact(rows)
        assert np.array_equal(rows, before)

    @given(st.integers(0, 60), st.integers(1, 5), st.integers(1, 300),
           st.integers(0, 2 ** 16))
    @settings(max_examples=60, deadline=None)
    def test_random_rows(self, rows, cols, spread, seed):
        rng = np.random.default_rng(seed)
        assert_tuple_ids_exact(rng.integers(-1, spread, (rows, cols)))


# the regimes of the product of the column spans: int32 ids, int64 ids,
# and int64 ids re-ranked past _KEY_LIMIT (None: no upper end)
SPAN_PRODUCTS = [(1, 2 ** 31), (2 ** 31, distance._KEY_LIMIT + 1),
                 (distance._KEY_LIMIT + 1, None)]


@st.composite
def fold_blocks(draw):
    """1-3 blocks of one dtype and width, sharing rows and near-copies.

    Column spans, each below 2**31, multiply into a drawn regime; every
    column holds negative values when its dtype allows.
    """
    dtype = draw(st.sampled_from([np.int8, np.uint8, np.int32, np.uint64]))
    info = np.iinfo(dtype)
    top = min(int(info.max) - int(info.min) + 1, 2 ** 31 - 1)
    low, high = draw(st.sampled_from(SPAN_PRODUCTS))
    width = draw(st.integers(0, 8))
    spans = []
    while (product := math.prod(spans)) < low or len(spans) < width:
        room = top if high is None else (high - 1) // product
        spans.append(draw(st.integers(2 if product < low else 1,
                                      min(top, room))))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    pool = np.empty((draw(st.integers(2, 8)), len(spans)), dtype=dtype)
    for j, span in enumerate(spans):
        # values in [-below, span - 1 - below], both ends in the pool
        below = draw(st.integers(max(0, span - 1 - int(info.max)),
                                 min(span - 1, -int(info.min))))
        pool[:, j] = rng.integers(-below, span - 1 - below, len(pool),
                                  endpoint=True)
        pool[:2, j] = -below, span - 1 - below
    blocks = []
    for size in draw(st.lists(st.integers(0, 40), min_size=1, max_size=3)):
        rows = pool[rng.integers(0, len(pool), size)]
        if spans and size:
            # a row that differs from a pool row in one column only
            j = rng.integers(len(spans))
            rows[0, j] = rng.integers(pool[:, j].min(), pool[:, j].max(),
                                      endpoint=True)
        blocks.append(rows)
    return blocks


class TestFoldRows:
    @given(fold_blocks())
    @settings(max_examples=300, deadline=None)
    def test_ids_keep_the_joint_order_then_rank_like_unique(self, blocks):
        before = [b.copy() for b in blocks]
        rows = np.concatenate(blocks)
        spans = [int(max(c.max(initial=0), 0)) - int(min(c.min(initial=0), 0))
                 + 1 for c in rows.T]
        ids, bound = fold_rows(blocks)
        assert [i.shape for i in ids] == [(len(b),) for b in blocks]
        wide = math.prod(spans) >= 2 ** 31
        assert all(i.dtype == (np.int64 if wide else np.int32) for i in ids)
        joint = np.concatenate(ids)
        assert ((joint >= 0) & (joint < bound)).all()
        want, count = np.zeros(0, dtype=np.intp), 0
        if len(rows):
            uniq, want = np.unique(rows, axis=0, return_inverse=True)
            want, count = want.ravel(), len(uniq)
        # equal rows share an id, and ids rise with the rows' order
        order = np.argsort(want, kind="stable")
        assert np.array_equal(np.sign(np.diff(joint[order])),
                              np.sign(np.diff(want[order])))
        assert rank_ids(ids, bound) == count
        assert np.array_equal(np.concatenate(ids), want)
        assert all(np.array_equal(a, b) for a, b in zip(blocks, before))


class TestGhd:
    def test_level_zero_is_spd(self):
        g = random_graph(12, 0.3, 1)
        h = build_hierarchy(g, "louvain", 2, seed=0)
        np.testing.assert_array_equal(ghd(h, 0),
                                      spd_all_pairs(g))

    def test_two_cliques_level_one(self):
        g = two_cliques_bridge(4)
        h = build_hierarchy(g, "louvain", 1, seed=0)
        assert h.levels[1].num_nodes == 2
        d1 = ghd(h, 1)
        img = h.image(1)
        same = img[:, None] == img[None, :]
        assert np.all(d1[same] == 0)
        assert np.all(d1[~same] == 1)

    def test_dodecahedron_newman_has_distance_two(self):
        from hdse.refine import dodecahedron_graph
        h = build_hierarchy(dodecahedron_graph(), "newman", 1)
        assert np.any(ghd(h, 1) == 2)

    def test_out_of_range_level(self):
        g = make_graph(3, [(0, 1)])
        h = build_hierarchy(g, "louvain", 1, seed=0)
        with pytest.raises(GraphValidationError):
            ghd(h, 2)

    def test_pair_limit_counts_base_pairs(self, monkeypatch):
        # level 1 has 2 nodes, whose 4 pairs fit under any limit here; the
        # result has 64, one per pair of base nodes
        h = build_hierarchy(two_cliques_bridge(4), "louvain", 1, seed=0)
        assert h.levels[1].num_nodes == 2
        monkeypatch.setattr(graph, "MAX_PAIRS", 64)
        for k in (0, 1):
            assert ghd(h, k).shape == (8, 8)
        monkeypatch.setattr(graph, "MAX_PAIRS", 63)
        for k in (0, 1):
            with pytest.raises(MemoryError, match="ghd needs 64 pairs"):
                ghd(h, k)


class TestHdseTensor:
    def test_zero_levels_equals_clipped_spd(self):
        g = random_graph(10, 0.3, 2)
        h = build_hierarchy(g, "louvain", 0)
        t = hdse(h, clip=3)
        spd = spd_all_pairs(g)
        expected = np.minimum(spd, 3)
        expected[spd == UNREACHABLE] = 4
        np.testing.assert_array_equal(t.entries[:, :, 0], expected)

    def test_clip_one_saturates(self):
        g = random_graph(10, 0.4, 3)
        h = build_hierarchy(g, "louvain", 1, seed=0)
        t = hdse(h, clip=1)
        assert set(np.unique(t.entries)) <= {0, 1, 2}

    def test_p5_hem_stacks_ghd_levels(self):
        g = make_graph(5, [(i, i + 1) for i in range(4)])
        h = build_hierarchy(g, "hem", 1, ratio=0.5)
        t = hdse(h, clip=30)
        np.testing.assert_array_equal(t.entries[:, :, 0], ghd(h, 0))
        np.testing.assert_array_equal(t.entries[:, :, 1], ghd(h, 1))

    def test_dtype_and_bad_clip(self):
        g = make_graph(3, [(0, 1)])
        h = build_hierarchy(g, "louvain", 0)
        assert hdse(h).entries.dtype == np.uint8
        for clip in (0, 255):
            with pytest.raises(GraphValidationError):
                hdse(h, clip=clip)

    def test_unreachable_distinct_from_clip(self):
        # one long path plus an isolated node: saturated != unreachable
        g = make_graph(6, [(i, i + 1) for i in range(4)])
        h = build_hierarchy(g, "louvain", 0)
        t = hdse(h, clip=2)
        assert t.entries[0, 3, 0] == 2      # true distance 3, clipped
        assert t.entries[0, 5, 0] == 3      # unreachable code = clip + 1


class TestHighLevelHdse:
    def test_two_cliques(self):
        g = two_cliques_bridge(4)
        h = build_hierarchy(g, "louvain", 1, seed=0)
        t = high_level_hdse(h, 1, clip=30)
        assert t.entries.shape == (8, 2, 1)
        img = h.image(1)
        for i in range(8):
            for j in range(2):
                assert t.entries[i, j, 0] == (0 if img[i] == j else 1)

    def test_single_cluster_level_all_zero(self):
        g = make_graph(2, [(0, 1)])
        h = build_hierarchy(g, "hem", 2, ratio=0.5)
        t = high_level_hdse(h, 1, clip=30)
        assert np.all(t.entries == 0)

    def test_top_level_slice_consistent_with_ghd(self):
        g = random_graph(16, 0.25, 5)
        h = build_hierarchy(g, "louvain", 2, seed=1)
        c = h.max_level
        t = high_level_hdse(h, c, clip=30)
        assert t.entries.shape == (16, h.levels[c].num_nodes, 1)
        # node-to-cluster slice must agree with the pairwise level-c distances
        full = ghd(h, c)
        img = h.image(c)
        for i in range(16):
            for j in range(h.levels[c].num_nodes):
                members = np.nonzero(img == j)[0]
                expected = full[i, members[0]]
                assert t.entries[i, j, 0] == (expected if expected != UNREACHABLE
                                              else 31)

    def test_out_of_range(self):
        g = make_graph(4, [(0, 1), (1, 2), (2, 3)])
        h = build_hierarchy(g, "hem", 1, ratio=0.5)
        for c in (0, 2):
            with pytest.raises(GraphValidationError):
                high_level_hdse(h, c)


class TestMetricProperties:
    def test_ghd0_equals_spd_100_random_graphs(self):
        for seed in range(100):
            n = 5 + seed % 20
            g = random_graph(n, [0.05, 0.2, 0.5][seed % 3], seed)
            h = build_hierarchy(g, "hem", 1, ratio=0.5)
            np.testing.assert_array_equal(ghd(h, 0),
                                          spd_all_pairs(g))

    def test_symmetry_zero_diagonal_all_levels(self):
        for seed in range(20):
            g = random_graph(12, 0.3, seed)
            h = build_hierarchy(g, "louvain", 2, seed=seed)
            for k in range(h.max_level + 1):
                d = ghd(h, k)
                np.testing.assert_array_equal(d, d.T)
                assert np.all(np.diag(d) == 0)

    def test_triangle_inequality_exhaustive(self):
        for seed in range(5):
            g = random_graph(14, 0.2, seed + 50)
            h = build_hierarchy(g, "louvain", 2, seed=seed)
            n = g.num_nodes
            for k in range(h.max_level + 1):
                d = ghd(h, k).astype(np.int64)
                finite = d != UNREACHABLE
                for u in range(n):
                    for v in range(n):
                        for w in range(n):
                            if finite[u, v] and finite[v, w] and finite[u, w]:
                                assert d[u, w] <= d[u, v] + d[v, w]

    def test_coarsening_never_lengthens(self):
        for seed in range(10):
            g = random_graph(12, 0.25, seed + 100)
            h = build_hierarchy(g, "louvain", 2, seed=seed)
            for k in range(h.max_level):
                dk = ghd(h, k)
                dk1 = ghd(h, k + 1)
                both = (dk != UNREACHABLE) & (dk1 != UNREACHABLE)
                assert np.all(dk1[both] <= dk[both])

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(0)
        for seed in range(10):
            g = random_graph(10, 0.3, seed + 200)
            h = build_hierarchy(g, "louvain", 1, seed=seed)
            sigma = NodePermutation.random(10, rng)
            hp = permute_hierarchy(h, sigma)
            t = hdse(h, clip=30).entries
            tp = hdse(hp, clip=30).entries
            fwd = sigma.forward
            for i in range(10):
                for j in range(10):
                    np.testing.assert_array_equal(tp[fwd[i], fwd[j]], t[i, j])


def _oracle_encode(values, clip):
    enc = np.minimum(values, clip)
    enc[values == UNREACHABLE] = clip + 1
    return enc


def oracle_hdse(h, clip):
    """The former hdse: one n x n int32 distance stack per level, then cast."""
    slices = []
    for k in range(h.max_level + 1):
        img = h.image(k)
        spd_k = spd_all_pairs(h.levels[k])[np.ix_(img, img)].astype(np.int32)
        slices.append(_oracle_encode(spd_k, clip))
    return np.stack(slices, axis=2).astype(np.uint8)


def oracle_high_level_hdse(h, c, clip):
    """The former high_level_hdse, node-to-cluster slices stacked and cast."""
    slices = []
    cluster_img = np.arange(h.levels[c].num_nodes)
    for m in range(h.max_level + 1 - c):
        level = c + m
        spd_l = spd_all_pairs(h.levels[level])
        node_img = h.image(level)
        slices.append(_oracle_encode(spd_l[np.ix_(node_img, cluster_img)], clip))
        if level < h.max_level:
            cluster_img = h.maps[level].assign[cluster_img]
    return np.stack(slices, axis=2).astype(np.uint8)


def assert_same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_encoders_match_oracles(h):
    for clip in (1, 254):
        t = hdse(h, clip=clip)
        assert t.clip == clip
        assert_same_bytes(t.entries, oracle_hdse(h, clip))
        for c in range(1, h.max_level + 1):
            t = high_level_hdse(h, c, clip=clip)
            assert t.clip == clip
            assert_same_bytes(t.entries, oracle_high_level_hdse(h, c, clip))
    for k in range(h.max_level + 1):
        img = h.image(k)
        assert_same_bytes(ghd(h, k),
                          spd_all_pairs(h.levels[k])[np.ix_(img, img)])


class TestEncodersMatchOracles:
    """hdse, high_level_hdse and ghd, which gather each level row first,
    then column, are byte-identical to the per-level ``np.ix_`` stacks."""

    @pytest.mark.parametrize("algo", ["louvain", "hem", "newman"])
    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_tiny_graphs(self, algo, n):
        # empty levels, and levels that collapse to one node and repeat
        for levels in range(4):
            assert_encoders_match_oracles(build_hierarchy(
                make_graph(n, [(0, 1)] if n == 2 else []), algo, levels))

    @given(st.integers(2, 24), st.sampled_from([0.03, 0.1, 0.25, 0.5]),
           st.integers(0, 10_000), st.sampled_from(["louvain", "hem", "newman"]),
           st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_random_hierarchies(self, n, p, seed, algo, levels):
        h = build_hierarchy(random_graph(n, p, seed), algo, levels, seed=seed)
        assert_encoders_match_oracles(h)


def test_hdse_peak_is_at_most_9_bytes_per_pair():
    # the (n, n, 3) uint8 result plus level 0's int32 distances and one
    # uint8 temporary; 8.55 B per pair measured
    n, rng = 1000, np.random.default_rng(0)
    e = rng.integers(0, n, size=(3 * n, 2))
    h = build_hierarchy(make_graph(n, e[e[:, 0] != e[:, 1]]), "louvain", 2)
    assert 1 < h.levels[2].num_nodes < h.levels[1].num_nodes < n
    tracemalloc.start()
    try:
        t = hdse(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert t.entries.shape == (n, n, 3)
    assert peak <= 9 * n * n


def test_hdse_peak_is_at_most_6_bytes_per_pair():
    # the (n, n, 3) uint8 result, one level's uint8 codes and one unpacked
    # uint8 hop temporary: the BFS counts clipped codes directly, with no
    # int32 distances; 5.55 B per pair measured
    n, rng = 1000, np.random.default_rng(0)
    e = rng.integers(0, n, size=(3 * n, 2))
    h = build_hierarchy(make_graph(n, e[e[:, 0] != e[:, 1]]), "louvain", 2)
    tracemalloc.start()
    try:
        t = hdse(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert t.entries.shape == (n, n, 3)
    assert peak <= 6 * n * n


class TestTensorFile:
    def test_roundtrip(self):
        g = random_graph(9, 0.3, 3)
        h = build_hierarchy(g, "louvain", 1, seed=0)
        t = hdse(h, clip=30)
        blob = write_tensor(t.entries, t.clip)
        entries, clip = read_tensor(blob)
        assert clip == 30
        np.testing.assert_array_equal(entries, t.entries)

    @settings(max_examples=100, deadline=None)
    @given(shape=st.tuples(st.integers(0, 5), st.integers(0, 5),
                           st.sampled_from([0, 1, 3, 255, 256])),
           clip=st.integers(-2, 300),
           dtype=st.sampled_from([np.uint8, np.int32, np.int64]),
           seed=st.integers(0, 2 ** 16))
    def test_round_trip_is_exact_or_rejected(self, shape, clip, dtype, seed):
        entries = np.random.default_rng(seed).integers(0, 300, shape)
        entries = entries.astype(dtype)
        try:
            back, back_clip = read_tensor(write_tensor(entries, clip))
        except GraphValidationError:
            # refused: not a uint8 tensor, a clip outside [1, 254], an
            # entry above clip + 1 or more levels than the one-byte header
            # field holds
            assert (dtype != np.uint8 or not 1 <= clip <= 254
                    or entries.max(initial=0) > clip + 1 or shape[2] > 255)
            return
        assert back_clip == clip
        assert back.dtype == entries.dtype and back.shape == entries.shape
        assert back.tobytes() == entries.tobytes()

    def test_write_copies_the_payload_once(self):
        # the returned bytes are the one copy; header + tobytes() made two
        entries = np.random.default_rng(0).integers(0, 32, (1000, 1000, 3),
                                                    dtype=np.uint8)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            blob = write_tensor(entries, 30)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert type(blob) is bytes
        assert blob[distance._HEADER.size:] == entries.tobytes()
        assert peak <= 1.01 * entries.size

    @pytest.mark.parametrize("shape", [(0, 0, 1), (0, 5, 3), (3, 0, 2),
                                       (7, 4, 3), (2, 3, 300), (2, 3, 0)])
    def test_json_is_the_bytes_of_json_dumps(self, shape):
        entries = np.random.default_rng(0).integers(0, 32, shape,
                                                    dtype=np.uint8)
        obj = {"shape": list(shape), "clip": 30, "entries": entries.tolist()}
        assert tensor_to_json(entries, 30) == json.dumps(
            obj, sort_keys=True, separators=(",", ":"))

    @pytest.mark.parametrize("shape", [(1, 1, 1), (9000, 1, 2), (5, 4000, 1),
                                       (3, 2, 20000), (40, 30, 3)])
    def test_json_rows_every_byte_value_and_block(self, shape):
        # one, two and three digits, and shapes whose rows fill several
        # formatting blocks, one block or more than one block each
        entries = np.random.default_rng(1).integers(0, 256, shape,
                                                    dtype=np.uint8)
        entries.reshape(-1)[:256] = np.arange(min(256, entries.size))
        parts = list(distance.tensor_json_parts(entries, 254))
        assert len(parts) == shape[0] + 2
        for i, row in enumerate(entries):
            assert parts[i + 1] == ("," if i else "") + json.dumps(
                row.tolist(), separators=(",", ":"))

    def test_json_refuses_other_dtypes(self):
        with pytest.raises(GraphValidationError, match="must be uint8"):
            tensor_to_json(np.zeros((2, 2, 1), dtype=np.int32), 30)

    def test_header_magic_checked(self):
        with pytest.raises(GraphValidationError):
            read_tensor(b"XXXX" + bytes(12))

    def test_truncated_payload(self):
        g = make_graph(3, [(0, 1)])
        h = build_hierarchy(g, "louvain", 0)
        t = hdse(h)
        blob = write_tensor(t.entries, t.clip)
        with pytest.raises(GraphValidationError):
            read_tensor(blob[:-1])

    @pytest.mark.parametrize("clip", [0, 255])
    def test_read_refuses_header_clip(self, clip):
        blob = distance._HEADER.pack(b"HDSE", 1, 1, 2, 1, clip) + bytes(2)
        with pytest.raises(GraphValidationError,
                           match=rf"clip must be in \[1, 254\], got {clip}"):
            read_tensor(blob)

    def test_read_refuses_entry_above_unreachable(self):
        header = distance._HEADER.pack(b"HDSE", 1, 2, 2, 1, 5)
        # 6 = clip + 1 is the unreachable code, the largest valid entry
        entries, clip = read_tensor(header + bytes([0, 6, 5, 1]))
        assert clip == 5 and entries.ravel().tolist() == [0, 6, 5, 1]
        for top in (7, 200, 255):
            with pytest.raises(GraphValidationError,
                               match=rf"tensor entry {top} above clip \+ 1"):
                read_tensor(header + bytes([0, 6, top, 1]))

    def test_write_refuses_entry_above_unreachable(self):
        entries = np.array([[[0], [6]], [[7], [1]]], dtype=np.uint8)
        with pytest.raises(GraphValidationError, match="tensor entry 7"):
            write_tensor(entries, 5)
        assert read_tensor(write_tensor(entries, 6))[1] == 6
