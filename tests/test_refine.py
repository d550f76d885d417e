import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdse import distance, refine
from hdse.coarsen import build_hierarchy
from hdse.distance import hdse, spd_all_pairs
from hdse.graph import GraphValidationError, NodePermutation, make_graph, permute
from hdse.refine import (HdseEncoding, SpdEncoding, barbell_graph,
                         community_pair_graph, cycle_graph, desargues_graph,
                         distinguishes, dodecahedron_graph, gd_wl_refine,
                         make_named_graph, refine_pair)


def random_graph(n, p, seed):
    rng = np.random.default_rng(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    return make_graph(n, edges)


def girth(g):
    """Brute force: shortest cycle through any edge via BFS avoidance."""
    best = np.inf
    for u, v in g.edge_array():
        # shortest u-v path not using edge (u, v)
        dist = {u: 0}
        frontier = [u]
        while frontier and v not in dist:
            nxt = []
            for a in frontier:
                for b in g.neighbors(a):
                    if (a, b) in ((u, v), (v, u)):
                        continue
                    if b not in dist:
                        dist[int(b)] = dist[a] + 1
                        nxt.append(int(b))
            frontier = nxt
        if v in dist:
            best = min(best, dist[v] + 1)
    return best


def is_bipartite(g):
    color = np.full(g.num_nodes, -1)
    for s in range(g.num_nodes):
        if color[s] >= 0:
            continue
        color[s] = 0
        stack = [s]
        while stack:
            v = stack.pop()
            for u in g.neighbors(v):
                if color[u] < 0:
                    color[u] = 1 - color[v]
                    stack.append(int(u))
                elif color[u] == color[v]:
                    return False
    return True


def loop_community_pair(n, p, q, seed):
    """community_pair_graph drawing one scalar per candidate edge."""
    rng = np.random.default_rng(seed)
    edges = []
    for base in (0, n):
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < p:
                    edges.append((base + i, base + j))
    inter = 0
    for i in range(n):
        for j in range(n):
            if rng.random() < q:
                edges.append((i, n + j))
                inter += 1
    if inter == 0:
        edges.append((0, n))
    return make_graph(2 * n, edges, labels=np.repeat([0, 1], n))


class TestNamedGraphs:
    def test_dodecahedron(self):
        g = dodecahedron_graph()
        assert g.num_nodes == 20
        assert g.num_edges == 30
        assert np.all(g.degrees() == 3)
        assert girth(g) == 5

    def test_desargues(self):
        g = desargues_graph()
        assert g.num_nodes == 20
        assert g.num_edges == 30
        assert np.all(g.degrees() == 3)
        assert girth(g) == 6
        assert is_bipartite(g)

    def test_cycle(self):
        g = cycle_graph(6)
        assert g.num_nodes == 6
        assert g.num_edges == 6

    def test_barbell(self):
        g = barbell_graph(5)
        assert g.num_nodes == 10
        assert g.num_edges == 21

    def test_community_pair_labeled(self):
        g = community_pair_graph(10, 0.4, 0.05, seed=3)
        assert g.num_nodes == 20
        assert np.array_equal(g.node_labels, [0] * 10 + [1] * 10)
        # at least one inter-block edge by construction
        edges = g.edge_array()
        assert np.any((edges[:, 0] < 10) & (edges[:, 1] >= 10))

    @pytest.mark.parametrize("n", [1, 2, 3, 15, 40])
    def test_community_pair_equals_scalar_loops(self, n):
        for p in (0.0, 0.3, 1.0):
            for q in (0.0, 0.05, 1.0):
                for seed in range(20):
                    assert (community_pair_graph(n, p, q, seed)
                            == loop_community_pair(n, p, q, seed))

    def test_name_parsing(self):
        assert make_named_graph("cycle(6)").num_nodes == 6
        assert make_named_graph("dodecahedron").num_nodes == 20
        assert make_named_graph("community_pair(5,0.5,0.1,1)").num_nodes == 10
        with pytest.raises(GraphValidationError):
            make_named_graph("petersen")
        with pytest.raises(GraphValidationError):
            make_named_graph("??")


class TestRefine:
    @pytest.mark.parametrize("clip", [0, 255])
    def test_hdse_encoding_refuses_bad_clip(self, clip):
        with pytest.raises(GraphValidationError, match="clip must be in"):
            HdseEncoding(clip=clip)

    def test_edgeless_all_same_color(self):
        g = make_graph(3, [])
        cm = gd_wl_refine(g, SpdEncoding())
        for colors in cm.colors:
            assert len(set(colors.tolist())) == 1

    def test_p3_endpoints_share_color(self):
        g = make_graph(3, [(0, 1), (1, 2)])
        cm = gd_wl_refine(g, SpdEncoding())
        first = cm.colors[1]
        assert first[0] == first[2]
        assert first[0] != first[1]

    def test_six_cycle_vs_two_triangles(self):
        c6 = cycle_graph(6)
        tri2 = make_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert distinguishes(c6, tri2, SpdEncoding())

    def test_refinement_monotone_and_stabilizes(self):
        # the stop on an unchanged color count rests on this: each step
        # splits classes and never merges them, disconnected graphs included
        parity = np.arange(9)[:, None] % 2.0
        cases = [(s, 0.35) for s in range(10)] + [(10, 0.05), (11, 0.15)]
        for seed, p in cases:
            base = random_graph(9, p, seed)
            for feats in (None, parity):
                g = make_graph(9, base.edge_array(), features=feats)
                for enc in ORACLE_ENCODINGS:
                    cm = gd_wl_refine(g, enc)
                    assert len(cm.colors) <= g.num_nodes + 1
                    for old, new in zip(cm.colors, cm.colors[1:]):
                        assert (len(set(zip(new.tolist(), old.tolist())))
                                == len(set(new.tolist())))
                    assert all(a < b for a, b in zip(cm.history[:-2],
                                                     cm.history[1:-1]))
                    assert cm.history[-1] == cm.history[-2]
                    assert _oracle_same_partition(cm.colors[-2], cm.colors[-1])

    def test_initial_colors_from_features(self):
        g = make_graph(2, [(0, 1)], features=[[0.0], [1.0]])
        cm = gd_wl_refine(g, SpdEncoding())
        assert cm.colors[0][0] != cm.colors[0][1]

    def test_same_graph_not_distinguished(self):
        g = random_graph(8, 0.4, 1)
        assert not distinguishes(g, g, SpdEncoding())

    def test_different_sizes_trivially_distinguished(self):
        assert distinguishes(cycle_graph(5), cycle_graph(6), SpdEncoding())


class TestExpressiveness:
    def test_spd_fails_on_counterexample_pair(self):
        assert not distinguishes(dodecahedron_graph(), desargues_graph(),
                                 SpdEncoding())

    def test_hdse_newman_separates_counterexample_pair(self):
        assert distinguishes(dodecahedron_graph(), desargues_graph(),
                             HdseEncoding(levels=1, algo="newman"))

    def test_isomorphism_soundness_both_encodings(self):
        rng = np.random.default_rng(0)
        flips = 0
        for seed in range(60):
            n = 6 + seed % 8
            g = random_graph(n, 0.35, seed + 1000)
            sigma = NodePermutation.random(n, rng)
            gp = permute(g, sigma)
            assert not distinguishes(g, gp, SpdEncoding())
            # coarsening is not permutation-invariant, so the hierarchy
            # encoding may legitimately flip on a relabeled twin; report the
            # rate instead of failing on it
            if distinguishes(g, gp, HdseEncoding(levels=1, algo="hem")):
                flips += 1
        print(f"hierarchy-encoding flips on relabeled twins: {flips}/60")

    def test_hdse_dominates_spd(self):
        # whenever SPD separates a pair, the stacked encoding must too
        pairs = [
            (cycle_graph(6),
             make_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])),
            (random_graph(8, 0.3, 5), random_graph(8, 0.3, 6)),
            (barbell_graph(4), cycle_graph(8)),
        ]
        enc = HdseEncoding(levels=1, algo="hem")
        for g1, g2 in pairs:
            if distinguishes(g1, g2, SpdEncoding()):
                assert distinguishes(g1, g2, enc)

    def test_shared_color_namespace(self):
        g1 = cycle_graph(4)
        g2 = cycle_graph(4)
        cm1, cm2 = refine_pair(g1, g2, SpdEncoding())
        assert cm1.histogram() == cm2.histogram()


# ---------------------------------------------------------------------------
# Oracle: tuple-and-dictionary refinement. Every multiset is a sorted tuple of
# (distance key tuple, color) pairs, interned into one id table shared by
# both graphs and all iterations.

class _Interner:
    """Injective multiset -> color-id map shared across a graph pair."""

    def __init__(self):
        self.table: dict = {}

    def get(self, key) -> int:
        if key not in self.table:
            self.table[key] = len(self.table)
        return self.table[key]


def _oracle_keys(g, enc):
    if isinstance(enc, SpdEncoding):
        return spd_all_pairs(g)[:, :, None]
    h = build_hierarchy(g, enc.algo, enc.levels, seed=enc.seed)
    return hdse(h, clip=enc.clip).entries.astype(np.int32)


def _oracle_initial_colors(g, interner):
    if g.features is not None:
        return np.array([interner.get(("feat", tuple(row)))
                         for row in g.features])
    return np.array([interner.get(("feat", ())) for _ in range(g.num_nodes)])


def _oracle_refine_step(keys, colors, interner):
    n = len(colors)
    new = np.empty(n, dtype=np.int64)
    for v in range(n):
        multiset = tuple(sorted(
            (tuple(keys[v, u].tolist()), int(colors[u])) for u in range(n)))
        new[v] = interner.get(multiset)
    return new


def _oracle_same_partition(a, b):
    seen: dict = {}
    for x, y in zip(a.tolist(), b.tolist()):
        if x in seen:
            if seen[x] != y:
                return False
        else:
            seen[x] = y
    return len(set(seen.values())) == len(seen)


def oracle_refine_pair(g1, g2, enc):
    """(colors per iteration, history) for both graphs, and the verdict."""
    interner = _Interner()
    keys = [_oracle_keys(g1, enc), _oracle_keys(g2, enc)]
    colors = [_oracle_initial_colors(g, interner) for g in (g1, g2)]
    out = [[c] for c in colors]
    for _ in range(max(1, g1.num_nodes, g2.num_nodes)):
        new = [_oracle_refine_step(k, c, interner)
               for k, c in zip(keys, colors)]
        for seq, c in zip(out, new):
            seq.append(c)
        if all(_oracle_same_partition(a, b) for a, b in zip(colors, new)):
            break
        colors = new
    histories = [[len(np.unique(c)) for c in seq] for seq in out]
    verdict = Counter(out[0][-1].tolist()) != Counter(out[1][-1].tolist())
    return out, histories, verdict


# Oracle for the rank: refinement as it was with one ``np.lexsort`` over the
# padded rows and int64 keys. The library must give the very same ids.

def lexsort_dense_rows(blocks):
    width = max(b.shape[1] for b in blocks)
    rows = np.zeros((sum(len(b) for b in blocks), width + 1),
                    dtype=np.result_type(*blocks))
    start = 0
    for b in blocks:
        rows[start:start + len(b), 0] = b.shape[1]
        rows[start:start + len(b), 1:b.shape[1] + 1] = b
        start += len(b)
    order = np.lexsort(rows.T)
    ordered = rows[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    ids = np.empty(len(rows), dtype=np.int64)
    ids[order] = np.cumsum(first) - 1
    return np.split(ids, np.cumsum([len(b) for b in blocks])[:-1])


def int64_refine_step(pairs, colors):
    base = 1 + max(int(c.max(initial=-1)) for c in colors)
    return lexsort_dense_rows([np.sort(p * base + c, axis=1)
                               for p, c in zip(pairs, colors)])


def lexsort_refine(graphs, enc):
    """Colors per iteration of each graph, from the lexsort rank."""
    pairs = refine._pair_ids([refine._distance_keys(g, enc) for g in graphs])
    colors = lexsort_dense_rows([g.features if g.features is not None
                                 else np.empty((g.num_nodes, 0))
                                 for g in graphs])
    out = [[c] for c in colors]
    while True:
        colors = int64_refine_step(pairs, colors)
        for seq, c in zip(out, colors):
            seq.append(c)
        if all(len(np.unique(seq[-1])) == len(np.unique(seq[-2]))
               for seq in out):
            return out


def canonical(colors):
    """Relabel colors by first appearance: equal iff same partition."""
    _, first, inverse = np.unique(colors, return_index=True,
                                  return_inverse=True)
    return np.argsort(np.argsort(first))[inverse]


def assert_matches_oracle(g1, g2, enc):
    cm1, cm2 = refine_pair(g1, g2, enc)
    for cm, want in zip((cm1, cm2), lexsort_refine([g1, g2], enc)):
        assert len(cm.colors) == len(want)
        for got, exp in zip(cm.colors, want):
            assert got.dtype == exp.dtype and np.array_equal(got, exp)
    (o1, o2), (h1, h2), verdict = oracle_refine_pair(g1, g2, enc)
    assert len(cm1.colors) == len(cm2.colors) == len(o1) == len(o2)
    for it, (c1, c2, e1, e2) in enumerate(zip(cm1.colors, cm2.colors, o1, o2)):
        assert np.array_equal(canonical(np.concatenate([c1, c2])),
                              canonical(np.concatenate([e1, e2]))), it
    assert cm1.history == h1
    assert cm2.history == h2
    assert (cm1.histogram() != cm2.histogram()) == verdict
    return verdict


def changed(g, kind, rng):
    """g with one edge moved to a non-edge ("rewired") or one edge added."""
    edges = g.edge_array().tolist()
    present = {tuple(e) for e in edges}
    while True:
        u, v = sorted(rng.choice(g.num_nodes, size=2, replace=False).tolist())
        if (u, v) not in present:
            break
    if kind == "rewired":
        edges[rng.integers(len(edges))] = (u, v)
    else:
        edges.append((u, v))
    return make_graph(g.num_nodes, edges, features=g.features)


def make_pair(kind, n, seed, features):
    rng = np.random.default_rng(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < 3.0 / n]
    feats = None
    if features:
        feats = rng.integers(0, 2, size=(n, 2)).astype(np.float64)
    g = make_graph(n, edges, features=feats)
    if kind == "twin":
        return g, permute(g, NodePermutation.random(n, rng))
    return g, changed(g, kind, rng)


def enc_name(e):
    return "spd" if isinstance(e, SpdEncoding) else "hdse"


ORACLE_ENCODINGS = [
    SpdEncoding(),
    HdseEncoding(levels=1, algo="louvain"),
    HdseEncoding(levels=2, algo="louvain"),
    HdseEncoding(levels=1, algo="hem"),
    HdseEncoding(levels=2, algo="hem"),
]


class TestRefineOracle:
    @pytest.mark.parametrize("enc", ORACLE_ENCODINGS,
                             ids=lambda e: f"{enc_name(e)}-{getattr(e, 'algo', '')}"
                             f"{getattr(e, 'levels', '')}")
    @pytest.mark.parametrize("kind", ["twin", "rewired", "extra_edge"])
    @pytest.mark.parametrize("features", [False, True])
    def test_pairs_match_oracle(self, enc, kind, features):
        for seed, n in ((1, 12), (2, 25), (3, 40)):
            g1, g2 = make_pair(kind, n, seed, features)
            verdict = assert_matches_oracle(g1, g2, enc)
            if kind == "twin" and isinstance(enc, SpdEncoding):
                assert not verdict

    @pytest.mark.parametrize("enc", [SpdEncoding(),
                                     HdseEncoding(levels=2, algo="hem")])
    def test_only_one_graph_has_features(self, enc):
        g1, _ = make_pair("twin", 15, 4, features=True)
        g2 = make_graph(15, g1.edge_array())
        assert assert_matches_oracle(g1, g2, enc)
        assert assert_matches_oracle(g2, g1, enc)
        cm1, cm2 = refine_pair(g1, g2, enc)
        assert not set(cm1.colors[0].tolist()) & set(cm2.colors[0].tolist())

    def test_different_sizes_match_oracle(self):
        g1, _ = make_pair("twin", 10, 5, features=False)
        g2, _ = make_pair("twin", 13, 5, features=False)
        for enc in (SpdEncoding(), HdseEncoding(levels=1, algo="louvain")):
            assert assert_matches_oracle(g1, g2, enc)

    @pytest.mark.parametrize("widths", [(2, 2), (1, 3), (0, 2), (3, None)])
    def test_float_features_match_oracle(self, widths):
        # negative values, -0.0 next to 0.0, and rows of different widths
        # across the pair: the value ranks must keep the floats' order and
        # ties, and the padding, exactly as the lexsort over the floats did
        rng = np.random.default_rng(11)
        values = np.array([-2.5, -1e-300, -0.0, 0.0, 0.5, 3.0])
        for n in (9, 16):
            g, _ = make_pair("rewired", n, n, features=False)
            feats = [None if w is None else values[rng.integers(
                0, len(values), size=(n, w))] for w in widths]
            g1 = make_graph(n, g.edge_array(), features=feats[0])
            g2 = make_graph(n, changed(g, "rewired", rng).edge_array(),
                            features=feats[1])
            for enc in (SpdEncoding(), HdseEncoding(levels=2, algo="hem")):
                assert_matches_oracle(g1, g2, enc)
                assert_matches_oracle(g1, g1, enc)

    def test_signed_zero_and_nan_features_tie(self):
        # -0.0 == 0.0, and NaN features tie with each other, so a graph with
        # them is never told apart from itself
        g, _ = make_pair("twin", 12, 12, features=False)
        feats = np.zeros((12, 2))
        feats[::2, 0] = -0.0
        feats[::3, 1] = np.nan
        h = make_graph(12, g.edge_array(), features=feats)
        cm = gd_wl_refine(h, SpdEncoding())
        assert cm.history[0] == 2
        assert not distinguishes(h, h, SpdEncoding())

    def test_named_pairs_match_oracle(self):
        dod, des = dodecahedron_graph(), desargues_graph()
        assert not assert_matches_oracle(dod, des, SpdEncoding())
        assert_matches_oracle(barbell_graph(4), cycle_graph(8),
                              HdseEncoding(levels=2, algo="hem"))

    def test_one_graph_is_the_pair_case(self):
        g, _ = make_pair("rewired", 30, 6, features=True)
        for enc in ORACLE_ENCODINGS:
            cm = gd_wl_refine(g, enc)
            (seq, _), (hist, _), _ = oracle_refine_pair(g, g, enc)
            assert len(cm.colors) == len(seq)
            for c, e in zip(cm.colors, seq):
                assert np.array_equal(canonical(c), canonical(e))
            assert cm.history == hist

    def test_many_levels_do_not_overflow(self):
        # components stay apart at every level, so each of the 13 key
        # columns spans 0..255 and the folded pair id must be re-densified
        enc = HdseEncoding(levels=12, algo="hem", clip=254)
        rng = np.random.default_rng(7)
        edges, n = [], 0
        for size in (12, 9, 7, 5, 3, 1, 1):
            edges += [(n + i, n + j) for i in range(size)
                      for j in range(i + 1, size) if rng.random() < 0.4]
            n += size
        g1 = make_graph(n, edges)
        g2 = changed(g1, "rewired", rng)
        keys = _oracle_keys(g1, enc)
        spans = np.ptp(keys.reshape(-1, keys.shape[-1]), axis=0) + 1
        assert np.prod(spans.astype(float)) > distance._KEY_LIMIT
        assert_matches_oracle(g1, g2, enc)
        assert_matches_oracle(g1, permute(g1, NodePermutation.random(n, rng)),
                              enc)

    def test_pair_ids_are_exact_for_wide_keys(self):
        # the second graph repeats most keys of the first and changes only
        # the first column of the others: a wrapped int64 would merge them
        rng = np.random.default_rng(8)
        first = rng.integers(0, 256, size=(20, 20, 13)).astype(np.int32)
        second = first[:17, :17].copy()
        second[:8, :8, 0] = (second[:8, :8, 0] + 1) % 256
        keys = [first, second]
        ids = np.concatenate([p.ravel() for p in refine._pair_ids(keys)])
        rows = np.concatenate([k.reshape(-1, 13) for k in keys])
        expected = np.unique(rows, axis=0, return_inverse=True)[1].ravel()
        assert np.array_equal(canonical(ids), canonical(expected))


    @pytest.mark.parametrize("kind", ["twin", "rewired"])
    def test_colors_keep_under_order_preserving_pair_keys(self, kind,
                                                          monkeypatch):
        # pair ids are dense ranks of the folded distance keys; any key map
        # that keeps their order, such as the sparse folded keys themselves,
        # gives the very same colors, not just the same partitions
        g1, g2 = make_pair(kind, 40, 9, features=True)
        want = {enc: refine_pair(g1, g2, enc) for enc in ORACLE_ENCODINGS}
        dense_ids = refine._pair_ids
        rng = np.random.default_rng(10)

        def sparse_ids(keys):
            ids = dense_ids(keys)
            spread = np.cumsum(rng.integers(1, 1000, 1 + max(
                int(p.max(initial=0)) for p in ids)))
            return [spread[p] for p in ids]

        monkeypatch.setattr(refine, "_pair_ids", sparse_ids)
        for enc, cms in want.items():
            for got, cm in zip(refine_pair(g1, g2, enc), cms):
                assert len(got.colors) == len(cm.colors)
                for a, b in zip(got.colors, cm.colors):
                    assert np.array_equal(a, b)


@pytest.mark.parametrize("enc", [SpdEncoding(),
                                 HdseEncoding(levels=2, algo="louvain")],
                         ids=enc_name)
def test_refine_pair_peak_is_at_most_17_bytes_per_pair(enc):
    # the int32 pair ids, folded in place, and one step's int32 keys, byte
    # rows and sorted rows: 16.1 B per pair of each graph measured
    n = 1000
    graphs = []
    for seed in (1, 2):
        e = np.random.default_rng(seed).integers(0, n, size=(3 * n, 2))
        graphs.append(make_graph(n, e[e[:, 0] != e[:, 1]]))
    tracemalloc.start()
    try:
        refine_pair(*graphs, enc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 17 * 2 * n * n


def sparse_hem_pair():
    # many components, so every level of the hem codes spans 0..31 and the
    # folded pair ids reach 32**5 - 1: sparse ids times 2000 colours would
    # pass 2**31
    n = 1000
    graphs = []
    for seed in (1, 2):
        e = np.random.default_rng(seed).integers(0, n, size=(700, 2))
        graphs.append(make_graph(n, e[e[:, 0] != e[:, 1]]))
    return graphs, HdseEncoding(levels=4, algo="hem")


def test_sparse_pair_ids_ranked_peak_is_at_most_17_bytes_per_pair():
    graphs, enc = sparse_hem_pair()
    tracemalloc.start()
    try:
        refine_pair(*graphs, enc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 17 * 2 * 1000 * 1000


def test_ranked_pair_ids_give_the_sparse_ids_colors(monkeypatch):
    graphs, enc = sparse_hem_pair()
    ranked = refine.rank_ids
    tops = []

    def spy(pairs, bound):
        tops.append(max(int(p.max()) for p in pairs))
        return ranked(pairs, bound)

    monkeypatch.setattr(refine, "rank_ids", spy)
    got = refine_pair(*graphs, enc)
    assert len(tops) == 1 and (tops[0] + 1) * 2000 >= 2 ** 31
    # the sparse ids as they are, stepped on int64 keys
    monkeypatch.setattr(refine, "rank_ids", lambda pairs, bound: bound)
    want = refine_pair(*graphs, enc)
    for a, b in zip(got, want):
        assert len(a.colors) == len(b.colors)
        for ca, cb in zip(a.colors, b.colors):
            assert ca.dtype == cb.dtype and np.array_equal(ca, cb)


@st.composite
def row_blocks(draw):
    """Blocks of non-negative int32 or int64 rows of different widths.

    Values may be small or reach past 2**31; rows may all be equal, or
    differ only in their smallest (first) key, as sorted multisets do.
    """
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    top = draw(st.sampled_from([0, 1, 7, 2 ** 31 - 1] + (
        [2 ** 31, 2 ** 62] if dtype == np.int64 else [])))
    kind = draw(st.sampled_from(["random", "equal", "smallest"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    shapes = draw(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 5)),
                           min_size=1, max_size=3))
    base = np.sort(rng.integers(0, top + 1, size=5, dtype=dtype))
    blocks = []
    for rows, width in shapes:
        if kind == "random":
            b = rng.integers(0, top + 1, size=(rows, width), dtype=dtype)
        else:
            b = np.tile(base[:width], (rows, 1))
            if kind == "smallest" and width:
                b[:, 0] = rng.integers(0, base[0] + 1, size=rows)
        blocks.append(b)
    return blocks


class TestRowRank:
    @settings(max_examples=200, deadline=None)
    @given(blocks=row_blocks())
    def test_byte_rank_equals_lexsort(self, blocks):
        got = refine._dense_rows(blocks)
        want = lexsort_dense_rows(blocks)
        assert len(got) == len(want) == len(blocks)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    @pytest.mark.parametrize("base, top, dtype", [
        (1024, 2 ** 21 - 2, np.int32), (1024, 2 ** 21 - 1, np.int64),
        (1, 2 ** 31 - 2, np.int32), (1, 2 ** 31 - 1, np.int64),
        (3, 2 ** 40, np.int64)])
    def test_step_keys_on_both_sides_of_int32(self, base, top, dtype,
                                              monkeypatch):
        # keys are int32 exactly when (top + 1) * base < 2**31; the ids are
        # those of int64 keys on either side
        rng = np.random.default_rng(top % 997)
        pairs, colors = [], []
        for n in (6, 4):
            p = rng.integers(0, top + 1, size=(n, n))
            p[0, -1] = top
            c = rng.integers(0, base, size=n)
            c[-1] = base - 1
            pairs.append(p)
            colors.append(c)
        seen = []
        rank = refine._dense_rows

        def spy(blocks):
            seen.extend(b.dtype for b in blocks)
            return rank(blocks)

        monkeypatch.setattr(refine, "_dense_rows", spy)
        got = refine._refine_step(pairs, colors, top)
        assert seen == [np.dtype(dtype)] * 2
        for a, b in zip(got, int64_refine_step(pairs, colors)):
            assert a.dtype == b.dtype and np.array_equal(a, b)


class TestEmptyGraphs:
    @pytest.mark.parametrize("enc", [SpdEncoding(),
                                     HdseEncoding(levels=2, algo="louvain"),
                                     HdseEncoding(levels=1, algo="newman"),
                                     HdseEncoding(levels=2, algo="hem")],
                             ids=lambda e: f"{enc_name(e)}-{getattr(e, 'algo', '')}")
    def test_empty_pair_not_distinguished(self, enc):
        g = make_graph(0, [])
        cm1, cm2 = refine_pair(g, g, enc)
        assert len(cm1.colors) == len(cm2.colors) == 2
        assert cm1.history == cm2.history == [0, 0]
        assert cm1.histogram() == cm2.histogram() == Counter()
        assert not distinguishes(g, g, enc)
        assert gd_wl_refine(g, enc).history == [0, 0]
