"""Acceptance suite: one test per release criterion, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import contextlib
import time

import numpy as np

from hdse.attention import init_attention_params, init_bias_params, \
    BiasedAttentionLayer, attention_forward
from hdse.cli import main
from hdse.coarsen import build_hierarchy, girvan_newman, \
    louvain, permute_hierarchy
from hdse.demo import DemoConfig, run_all_encodings
from hdse.distance import UNREACHABLE, ghd, hdse, spd_all_pairs
from hdse.graph import NodePermutation, make_graph
from hdse.refine import (HdseEncoding, SpdEncoding, barbell_graph,
                         desargues_graph, distinguishes, dodecahedron_graph)

from test_attention import finite_difference_check
from test_coarsen import betweenness_oracle
from test_distance import floyd_warshall


@contextlib.contextmanager
def verdict(name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(f"ACCEPTANCE {name}: PASS")


def random_graph(n, p, seed):
    rng = np.random.default_rng(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    return make_graph(n, edges)


def test_1_expressiveness_separation():
    with verdict("1 expressiveness-separation"):
        start = time.time()
        dodeca, desargues = dodecahedron_graph(), desargues_graph()
        assert not distinguishes(dodeca, desargues, SpdEncoding())
        hits = sum(
            distinguishes(dodeca, desargues,
                          HdseEncoding(levels=1, algo="newman", seed=s))
            for s in range(3))
        assert hits == 3
        assert time.time() - start < 5.0


def test_2_base_level_distance_equals_spd():
    with verdict("2 base-distance-equals-spd"):
        for seed in range(100):
            n = 4 + seed % 57
            p = [0.05, 0.2, 0.5][seed % 3]
            g = random_graph(n, p, seed)
            h = build_hierarchy(g, "hem", 1, ratio=0.5)
            oracle = floyd_warshall(g)
            np.testing.assert_array_equal(ghd(h, 0), oracle)
            np.testing.assert_array_equal(spd_all_pairs(g), oracle)


def test_3_pseudometric_axioms():
    with verdict("3 pseudometric-axioms"):
        algos = ("louvain", "newman", "hem")
        for seed in range(50):
            g = random_graph(6 + seed % 25, 0.25, seed + 300)
            h = build_hierarchy(g, algos[seed % 3], 2, seed=seed)
            for k in range(h.max_level + 1):
                d = ghd(h, k)
                np.testing.assert_array_equal(d, d.T)
                assert np.all(np.diag(d) == 0)
        # triangle inequality, exhaustive over all node triples
        for seed in range(10):
            g = random_graph(10 + seed * 2, 0.2, seed + 400)  # n up to 28
            h = build_hierarchy(g, algos[seed % 3], 2, seed=seed)
            for k in range(h.max_level + 1):
                d = ghd(h, k).astype(np.float64)
                d[d == UNREACHABLE] = np.inf
                # d[u,w] <= d[u,v] + d[v,w] for every v
                through = (d[:, :, None] + d[None, :, :]).min(axis=1)
                assert np.all(d <= through + 1e-9)


def test_4_gradient_correctness():
    with verdict("4 gradient-correctness"):
        start = time.time()
        for seed in range(20):
            rng = np.random.default_rng(seed)
            attn = init_attention_params(5, 2, 3, rng)
            bias = init_bias_params(2, 5, 3, 3, 2, rng)
            layer = BiasedAttentionLayer(attn, bias)
            x = rng.standard_normal((4, 5))
            w = rng.standard_normal((4, 6))
            if seed % 2 == 0:
                codes = rng.integers(0, 7, (4, 4, 2))
                err = finite_difference_check(layer, x, codes, w)
            else:
                xk = rng.standard_normal((2, 5))
                codes = rng.integers(0, 7, (4, 2, 2))
                err = finite_difference_check(layer, x, codes, w, x_ctx=xk)
            assert err < 1e-4
        assert time.time() - start < 60.0


def test_5_reduction_identities():
    with verdict("5 reduction-identities"):
        rng = np.random.default_rng(0)
        params = init_attention_params(6, 3, 2, rng)
        x = rng.standard_normal((7, 6))
        plain, _ = attention_forward(x, params, None)
        zero_bias, _ = attention_forward(x, params, np.zeros((7, 7, 3)))
        np.testing.assert_allclose(zero_bias, plain, atol=1e-12)
        # identity partition: cluster features == node features
        bias = rng.standard_normal((7, 7, 3))
        dense, _ = attention_forward(x, params, bias)
        linear, _ = attention_forward(x, params, bias, x_ctx=x)
        np.testing.assert_allclose(linear, dense, atol=1e-12)


def test_6_equivariance():
    with verdict("6 equivariance"):
        rng = np.random.default_rng(0)
        params = init_attention_params(5, 2, 3, rng)
        for trial in range(50):
            g = random_graph(9, 0.3, trial + 600)
            h = build_hierarchy(g, "louvain", 1, seed=trial)
            sigma = NodePermutation.random(9, rng)
            t = hdse(h, clip=30).entries
            tp = hdse(permute_hierarchy(h, sigma), clip=30).entries
            fwd = sigma.forward
            assert np.array_equal(tp[np.ix_(fwd, fwd)], t)  # exact, integer
            x = rng.standard_normal((9, 5))
            bias = rng.standard_normal((9, 9, 2))
            out, _ = attention_forward(x, params, bias)
            perm = rng.permutation(9)
            out_perm, _ = attention_forward(x[perm], params,
                                            bias[np.ix_(perm, perm)])
            np.testing.assert_allclose(out_perm, out[perm], atol=1e-12)


def test_7_community_ordering():
    with verdict("7 community-ordering"):
        start = time.time()
        results, means = run_all_encodings(range(5), DemoConfig())
        print(f"  mean test accuracy: none={means['none']:.3f} "
              f"spd={means['spd']:.3f} hdse={means['hdse']:.3f}")
        assert means["hdse"] > means["none"] + 0.05
        assert means["hdse"] >= means["spd"]
        assert time.time() - start < 300.0


def test_8_coarsening_quality():
    with verdict("8 coarsening-quality"):
        # two 4-cliques + bridge: modularity clustering recovers the cliques
        edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        edges += [(4 + i, 4 + j) for i in range(4) for j in range(i + 1, 4)]
        edges.append((0, 4))
        g = make_graph(8, edges)
        p = louvain(g, seed=0)
        assert p.num_clusters == 2
        assert len(set(p.assign[:4])) == 1 and len(set(p.assign[4:])) == 1
        assert p.assign[0] != p.assign[4]
        # barbell: the bridge has strictly maximal exact betweenness and is
        # removed first
        bb = barbell_graph(5)
        adj = [set(map(int, bb.neighbors(v))) for v in range(bb.num_nodes)]
        bet = betweenness_oracle(bb.num_nodes, adj)
        bridge = (4, 5)
        assert all(bet[bridge] > b for e, b in bet.items() if e != bridge)
        split = girvan_newman(bb, target=2)
        assert len(set(split.assign[:5])) == 1
        assert len(set(split.assign[5:])) == 1
        assert split.assign[0] != split.assign[5]


def test_9_cli_determinism(tmp_path):
    with verdict("9 cli-determinism"):
        graph_file = tmp_path / "g.txt"
        assert main(["named-graph", "dodecahedron", "-o", str(graph_file)]) == 0

        def run_three(builder):
            blobs = []
            for i in range(3):
                out = tmp_path / f"out{i}"
                rc = builder(str(out))
                assert rc in (0, 1)
                blobs.append(out.read_bytes())
            assert blobs[0] == blobs[1] == blobs[2]

        run_three(lambda o: main(["named-graph", "desargues", "-o", o]))
        run_three(lambda o: main(["coarsen", str(graph_file),
                                  "--algo", "louvain", "--seed", "5", "-o", o]))
        hier = tmp_path / "h.json"
        main(["coarsen", str(graph_file), "--seed", "5", "-o", str(hier)])
        run_three(lambda o: main(["encode", str(hier), "-o", o]))
        run_three(lambda o: main(["gdwl", str(graph_file), str(graph_file),
                                  "--enc", "hdse", "--seed", "2", "-o", o]))
        run_three(lambda o: main(["demo", "--seeds", "1", "--epochs", "2",
                                  "-o", o]))
