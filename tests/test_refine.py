from collections import Counter

import numpy as np
import pytest

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


def canonical(colors):
    """Relabel colors by first appearance: equal iff same partition."""
    _, first, inverse = np.unique(colors, return_index=True,
                                  return_inverse=True)
    return np.argsort(np.argsort(first))[inverse]


def assert_matches_oracle(g1, g2, enc):
    cm1, cm2 = refine_pair(g1, g2, enc)
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
