import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from collections import deque
from dataclasses import fields, replace
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hdse import coarsen, graph
from hdse.coarsen import (Hierarchy, Partition, _brandes, _quotient,
                          build_coarse_graph, build_hierarchy, girvan_newman,
                          heavy_edge_matching, hierarchy_from_json,
                          hierarchy_to_json, louvain, modularity,
                          permute_hierarchy)
from hdse.distance import spd_all_pairs
from hdse.graph import (GraphParseError, GraphValidationError,
                        NodePermutation, make_graph)
from hdse.refine import (barbell_graph, desargues_graph, dodecahedron_graph,
                         generalized_petersen)


def two_cliques_bridge(k=4):
    edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
    edges += [(k + i, k + j) for i in range(k) for j in range(i + 1, k)]
    edges.append((0, k))
    return make_graph(2 * k, edges)


def all_partitions(n):
    """Enumerate every set partition of range(n) as an assignment array."""
    def rec(i, assign, num):
        if i == n:
            yield np.array(assign), num
            return
        for c in range(num + 1):
            assign.append(c)
            yield from rec(i + 1, assign, max(num, c + 1))
            assign.pop()
    yield from rec(0, [], 0)


def projection_oracle(part):
    """Dense column-normalized one-hot matrix P of a partition, (n, c)."""
    raw = np.zeros((len(part.assign), part.num_clusters))
    raw[np.arange(len(part.assign)), part.assign] = 1.0
    return raw / np.sqrt(raw.sum(axis=0))


def assert_projection_chain(h):
    """projected_features[k+1] == P_k^T projected_features[k], P_k^T P_k == I."""
    chain = h.projected_features
    assert len(chain) == len(h.levels)
    np.testing.assert_array_equal(chain[0], h.levels[0].features)
    for k, part in enumerate(h.maps):
        proj = projection_oracle(part)
        np.testing.assert_allclose(proj.T @ proj, np.eye(part.num_clusters),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(chain[k + 1], proj.T @ chain[k],
                                   rtol=0, atol=1e-12)


def best_modularity_partition(g):
    best_q, best_a = -np.inf, None
    for assign, num in all_partitions(g.num_nodes):
        q = modularity(g, Partition(assign, num))
        if q > best_q:
            best_q, best_a = q, assign.copy()
    return best_q, best_a


def relabel_by_dict(assign):
    """First-appearance relabeling through a Python dict (the oracle)."""
    remap = {}
    for c in assign:
        remap.setdefault(int(c), len(remap))
    return [remap[int(c)] for c in assign], len(remap)


class TestFromAssignment:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-2**62, 2**62) | st.integers(-3, 3),
                    max_size=40))
    def test_matches_dict_relabeling(self, labels):
        part = Partition.from_assignment(labels)
        want, count = relabel_by_dict(labels)
        assert part.assign.tolist() == want
        assert part.num_clusters == count


@pytest.mark.parametrize("assign, count, error", [
    ([], -1, "partition not surjective"),
    ([0, 2], 3, "partition not surjective"),
    ([0, 0], 1, None),
    ([], 0, None),
    ([0, 1], 5, "partition not surjective"),
    ([0, -1], 2, "cluster index out of range"),
    ([0, 1], -1, "cluster index out of range"),
])
def test_partition_checks_range_then_surjectivity(assign, count, error):
    if error is None:
        assert Partition(assign, count).num_clusters == count
    else:
        with pytest.raises(GraphValidationError, match=error):
            Partition(assign, count)


class TestLouvain:
    def test_two_cliques_recovered(self):
        g = two_cliques_bridge(4)
        p = louvain(g, seed=0)
        # oracle: exhaustive max-modularity over all partitions of 8 nodes
        best_q, best_a = best_modularity_partition(g)
        assert p.num_clusters == 2
        assert np.array_equal(p.assign, Partition.from_assignment(best_a).assign)
        assert modularity(g, p) == pytest.approx(best_q)

    def test_edgeless_graph_singletons(self):
        g = make_graph(5, [])
        p = louvain(g, seed=0)
        assert p.num_clusters == 5

    def test_six_cycle_nonnegative_modularity(self):
        g = make_graph(6, [(i, (i + 1) % 6) for i in range(6)])
        p = louvain(g, seed=0)
        best_q, _ = best_modularity_partition(g)
        q = modularity(g, p)
        assert q >= 0.0
        assert q <= best_q + 1e-12

    def test_beats_singleton_partition(self):
        g = two_cliques_bridge(4)
        singletons = Partition(np.arange(8), 8)
        assert modularity(g, louvain(g, seed=3)) >= modularity(g, singletons)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(5)
        edges = [(i, j) for i in range(14) for j in range(i + 1, 14)
                 if rng.random() < 0.3]
        g = make_graph(14, edges)
        first = louvain(g, seed=42)
        for _ in range(10):
            again = louvain(g, seed=42)
            assert np.array_equal(first.assign, again.assign)

    def test_negative_seed_rejected(self):
        with pytest.raises(GraphValidationError, match="seed"):
            louvain(two_cliques_bridge(4), seed=-1)


def louvain_one_level_oracle(adj, self_w, m2, rng):
    """One node-move phase over ``list[dict]`` adjacency (the oracle)."""
    n = len(adj)
    comm = np.arange(n)
    deg = np.array([sum(w for w in a.values()) for a in adj]) + self_w
    comm_tot = deg.copy().astype(np.float64)

    order = np.arange(n)
    rng.shuffle(order)
    improved = True
    while improved:
        improved = False
        for v in order:
            cv = comm[v]
            k_v = deg[v]
            links = {}
            for u, w in adj[v].items():
                links[comm[u]] = links.get(comm[u], 0.0) + w
            comm_tot[cv] -= k_v
            base = links.get(cv, 0.0) - comm_tot[cv] * k_v / m2
            best_c, best_gain = cv, 0.0
            for c in sorted(links):
                if c == cv:
                    continue
                gain = links[c] - comm_tot[c] * k_v / m2 - base
                if gain > best_gain + 1e-12:
                    best_c, best_gain = c, gain
            comm_tot[best_c] += k_v
            if best_c != cv:
                comm[v] = best_c
                improved = True
    return comm


def louvain_oracle(g, seed):
    """Louvain with dict adjacency and a per-node aggregation loop.

    Returns the partition and the number of aggregations it took.
    """
    if g.num_edges == 0:
        return Partition(np.arange(g.num_nodes), g.num_nodes), 0
    rng = np.random.default_rng(seed)
    m2 = 2.0 * g.num_edges
    adj = [dict() for _ in range(g.num_nodes)]
    for u, v in g.edge_array():
        adj[u][v] = adj[u].get(v, 0.0) + 1.0
        adj[v][u] = adj[v].get(u, 0.0) + 1.0
    self_w = np.zeros(g.num_nodes)
    assign = np.arange(g.num_nodes)
    aggregations = 0
    while True:
        part = Partition.from_assignment(
            louvain_one_level_oracle(adj, self_w, m2, rng))
        if part.num_clusters == len(adj):
            break
        aggregations += 1
        assign = part.assign[assign]
        c = part.num_clusters
        new_adj = [dict() for _ in range(c)]
        new_self = np.zeros(c)
        for v, a in enumerate(adj):
            cv = part.assign[v]
            new_self[cv] += self_w[v]
            for u, w in a.items():
                cu = part.assign[u]
                if cu == cv:
                    if u > v:
                        continue
                    new_self[cv] += 2.0 * w if u < v else w
                else:
                    new_adj[cv][cu] = new_adj[cv].get(cu, 0.0) + w
        adj, self_w = new_adj, new_self
        if len(adj) == 1:
            break
    return Partition.from_assignment(assign), aggregations


def hem_oracle(g, ratio):
    """Heavy-edge matching over a Python set of edge tuples (the oracle)."""
    n = g.num_nodes
    assign = np.arange(n)
    cur_n = n
    cur_edges = {tuple(e) for e in map(tuple, g.edge_array())}
    while cur_n > ratio * n and cur_edges:
        adj = {}
        for u, v in cur_edges:
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        mate = {}
        for v in range(cur_n):
            if v in mate or v not in adj:
                continue
            for u in sorted(adj[v]):
                if u not in mate and u != v:
                    mate[v] = u
                    mate[u] = v
                    break
        label = np.arange(cur_n)
        for v, u in mate.items():
            label[max(v, u)] = min(v, u)
        part = Partition.from_assignment(label)
        assign = part.assign[assign]
        cur_edges = {(min(part.assign[u], part.assign[v]),
                      max(part.assign[u], part.assign[v]))
                     for u, v in cur_edges
                     if part.assign[u] != part.assign[v]}
        if part.num_clusters == cur_n:
            break
        cur_n = part.num_clusters
    return Partition.from_assignment(assign)


def components_oracle(n, adj):
    """Component id per node by a ``deque`` BFS over ``list[set]`` adjacency."""
    comp = np.full(n, -1, dtype=np.int64)
    c = 0
    for s in range(n):
        if comp[s] >= 0:
            continue
        comp[s] = c
        q = deque([s])
        while q:
            v = q.popleft()
            for u in adj[v]:
                if comp[u] < 0:
                    comp[u] = c
                    q.append(u)
        c += 1
    return comp


def betweenness_oracle(n, adj):
    """Exact edge betweenness by one Brandes BFS per source (the oracle)."""
    bet = {}
    for v in range(n):
        for u in adj[v]:
            if v < u:
                bet[(v, u)] = 0.0
    for s in range(n):
        sigma = np.zeros(n)
        dist = np.full(n, -1, dtype=np.int64)
        sigma[s] = 1.0
        dist[s] = 0
        order = []
        preds = [[] for _ in range(n)]
        q = deque([s])
        while q:
            v = q.popleft()
            order.append(v)
            for u in sorted(adj[v]):
                if dist[u] < 0:
                    dist[u] = dist[v] + 1
                    q.append(u)
                if dist[u] == dist[v] + 1:
                    sigma[u] += sigma[v]
                    preds[u].append(v)
        delta = np.zeros(n)
        for v in reversed(order):
            for u in preds[v]:
                contrib = sigma[u] / sigma[v] * (1.0 + delta[v])
                key = (u, v) if u < v else (v, u)
                bet[key] += contrib
                delta[u] += contrib
    # each unordered pair counted from both endpoints
    return {e: b / 2.0 for e, b in bet.items()}


def removal_sequence_oracle(g):
    """The component partitions of ``g`` along the full Girvan-Newman removal
    sequence, from no edge removed to none left, over ``list[set]``
    adjacency with the two oracles above."""
    n = g.num_nodes
    adj = [set(map(int, g.neighbors(v))) for v in range(n)]
    yield Partition.from_assignment(components_oracle(n, adj))
    while any(adj[v] for v in range(n)):
        bet = betweenness_oracle(n, adj)
        bmax = max(bet.values())
        u, v = min(e for e, b in bet.items() if b >= bmax * (1.0 - 1e-9))
        adj[u].discard(v)
        adj[v].discard(u)
        yield Partition.from_assignment(components_oracle(n, adj))


def girvan_newman_oracle(g, target=None):
    """Girvan-Newman over the whole removal sequence, with no early stop."""
    best, best_q = None, -np.inf
    for part in removal_sequence_oracle(g):
        if target is not None:
            best = part
            if best.num_clusters >= target:
                return best
        elif (q := modularity(g, part)) > best_q + 1e-12:
            best, best_q = part, q
    return best


def modularity_bound_oracle(g, part):
    """intra/m - sum_v (deg_v / 2m)^2 by Python loops, where intra counts the
    edges of ``g`` inside ``part``'s clusters."""
    m = g.num_edges
    intra = sum(part.assign[u] == part.assign[v]
                for u, v in g.edge_array().tolist())
    return intra / m - sum((k / (2 * m)) ** 2 for k in g.degrees().tolist())


def component_bound_oracle(g, part):
    """The sum over ``part``'s clusters C of max over p in 1..|C| of
    (e(C) - p + 1)/m - max(D_C^2/p, S_C)/4m^2 by Python loops: e(C) counts
    the edges of ``g`` inside C, D_C and S_C sum the degrees of C and their
    squares."""
    m, deg = g.num_edges, g.degrees().tolist()
    total = 0.0
    for c in range(part.num_clusters):
        nodes = [v for v in range(g.num_nodes) if part.assign[v] == c]
        e = sum(part.assign[u] == c == part.assign[v]
                for u, v in g.edge_array().tolist())
        dc, sc = sum(deg[v] for v in nodes), sum(deg[v] ** 2 for v in nodes)
        total += max((e - p + 1) / m - max(dc * dc / p, sc) / (4 * m * m)
                     for p in range(1, len(nodes) + 1))
    return total


def delete_girvan_newman_oracle(g, target=None):
    """The former Girvan-Newman: it copies ``edges`` and ``bet`` without the
    removed edge (``np.delete``) and stops at the whole-graph bound
    intra(P)/m - sum_v (deg_v/2m)^2. It calls ``coarsen._brandes`` through
    the module, so ``brandes_calls`` counts its passes too."""
    n, m = g.num_nodes, max(g.num_edges, 1)
    ge = edges = g.edge_array()
    deg = g.degrees().astype(np.float64)
    floor = float(np.sum((deg / (2.0 * m)) ** 2))
    a = dense_adjacency(g)
    d, bet = coarsen._brandes(a, edges)
    best, best_q = None, -np.inf
    while True:
        part = Partition.from_assignment(
            np.where(d >= 0, np.arange(n), n).min(axis=1, initial=n))
        if target is not None:
            if part.num_clusters >= target:
                return part
        else:
            inside = np.sum(part.assign[ge[:, 0]] == part.assign[ge[:, 1]]) / m
            deg_sum = np.bincount(part.assign, deg, part.num_clusters)
            q = inside - float(np.sum((deg_sum / (2.0 * m)) ** 2))
            if q > best_q + 1e-12:
                best, best_q = part, q
            if inside - floor < best_q - 1e-9:
                return best
        split = False
        while not split:
            if not len(edges):
                return best
            drop = np.argmax(bet >= bet.max() * (1.0 - 1e-9))
            x, y = edges[drop]
            a[x, y] = a[y, x] = 0.0
            comp = d[x] >= 0
            edges, bet = np.delete(edges, drop, axis=0), np.delete(bet, drop)
            mine = comp[edges[:, 0]]
            d[np.ix_(comp, comp)], bet[mine] = coarsen._brandes(
                a[np.ix_(comp, comp)], (np.cumsum(comp) - 1)[edges[mine]])
            split = d[x, y] < 0


def brandes_calls(fn, g, target=None):
    """``fn(g, target)`` and the number of ``_brandes`` passes it ran."""
    calls = []

    def counting(a, edges):
        calls.append(len(a))
        return _brandes(a, edges)

    with mock.patch.object(coarsen, "_brandes", counting):
        return fn(g, target), len(calls)


def ring_of_cliques(k, size, extra=0):
    """k cliques joined in a ring by single edges, then ``extra`` isolated
    nodes; Louvain merges the cliques over several aggregations."""
    edges = [(c * size + i, c * size + j) for c in range(k)
             for i in range(size) for j in range(i + 1, size)]
    edges += [(c * size, ((c + 1) % k) * size + 1) for c in range(k)]
    return make_graph(k * size + extra, edges)


@st.composite
def coarsening_graphs(draw):
    """Small graphs with isolated nodes, several components, a single edge,
    or rings of cliques that take several Louvain aggregations; node ids
    are shuffled."""
    kind = draw(st.sampled_from(["random", "one edge", "rings"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "random":
        n = draw(st.integers(1, 40))
        p = draw(st.sampled_from([0.02, 0.08, 0.2, 0.5]))
        g = make_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                           if rng.random() < p])
    elif kind == "one edge":
        n = draw(st.integers(2, 8))
        g = make_graph(n, [rng.choice(n, 2, replace=False)])
    else:
        g = ring_of_cliques(draw(st.integers(3, 20)), draw(st.integers(3, 4)),
                            extra=draw(st.integers(0, 3)))
    sigma = rng.permutation(g.num_nodes)
    return make_graph(g.num_nodes, sigma[g.edge_array()])


class TestAgainstOracles:
    @settings(max_examples=120, deadline=None)
    @given(coarsening_graphs())
    def test_louvain(self, g):
        for seed in (0, 1, 2):
            got, (want, _) = louvain(g, seed), louvain_oracle(g, seed)
            assert got.num_clusters == want.num_clusters
            np.testing.assert_array_equal(got.assign, want.assign)

    @settings(max_examples=120, deadline=None)
    @given(coarsening_graphs())
    def test_heavy_edge_matching(self, g):
        for ratio in (0.3, 0.5, 0.9):
            got, want = heavy_edge_matching(g, ratio), hem_oracle(g, ratio)
            assert got.num_clusters == want.num_clusters
            np.testing.assert_array_equal(got.assign, want.assign)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_louvain_several_aggregations(self, seed):
        # the "rings" family really takes more than one aggregation
        g = ring_of_cliques(16, 3, extra=2)
        want, aggregations = louvain_oracle(g, seed)
        assert aggregations >= 2
        np.testing.assert_array_equal(louvain(g, seed).assign, want.assign)


def summing_louvain_one_level(n, edges, weights, self_w, m2, rng):
    """The former ``_louvain_one_level``: each visit sums the weight from
    the node to each neighbouring community afresh over its adjacency."""
    adj = [[] for _ in range(n)]
    for (u, v), w in zip(edges.tolist(), weights.tolist()):
        adj[u].append((v, w))
        adj[v].append((u, w))
    deg = [sum(w for _, w in a) + s for a, s in zip(adj, self_w.tolist())]
    comm = list(range(n))
    comm_tot = list(deg)

    order = np.arange(n)
    rng.shuffle(order)
    improved = True
    while improved:
        improved = False
        for v in order.tolist():
            cv = comm[v]
            k_v = deg[v]
            links = {}
            for u, w in adj[v]:
                cu = comm[u]
                links[cu] = links.get(cu, 0.0) + w
            comm_tot[cv] -= k_v
            base = links.get(cv, 0.0) - comm_tot[cv] * k_v / m2
            best_c, best_gain = cv, 0.0
            for c in sorted(links):
                if c == cv:
                    continue
                gain = links[c] - comm_tot[c] * k_v / m2 - base
                if gain > best_gain + 1e-12:
                    best_c, best_gain = c, gain
            comm_tot[best_c] += k_v
            if best_c != cv:
                comm[v] = best_c
                improved = True
    return np.array(comm)


@st.composite
def louvain_graphs(draw):
    """Edgeless graphs (the empty one included), uniform random graphs of
    1-3 edges per node, or a few random blocks with sparse edges between
    them, some disconnected, plus isolated nodes; node ids are shuffled."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["edgeless", "uniform", "blocks"]))
    if kind == "edgeless":
        return make_graph(draw(st.integers(0, 6)), [])
    if kind == "uniform":
        n = draw(st.integers(2, 80))
        e = rng.integers(0, n, size=(draw(st.integers(1, 3)) * n, 2))
        return make_graph(n, e[e[:, 0] != e[:, 1]])
    n, edges = 0, []
    for _ in range(draw(st.integers(1, 4))):
        k = draw(st.integers(1, 25))
        p = draw(st.sampled_from([0.1, 0.3, 0.6]))
        edges += [(n + i, n + j) for i in range(k)
                  for j in range(i + 1, k) if rng.random() < p]
        n += k
    q = draw(st.sampled_from([0.0, 0.01, 0.03]))
    edges += [(i, j) for i in range(n) for j in range(i + 1, n)
              if rng.random() < q]
    n += draw(st.integers(0, 3))
    sigma = rng.permutation(n)
    return make_graph(n, sigma[np.array(edges, dtype=np.int64).reshape(-1, 2)])


def assert_louvain_matches_summing_oracle(g, levels, seed):
    got = build_hierarchy(g, "louvain", levels, seed=seed)
    with mock.patch.object(coarsen, "_louvain_one_level",
                           summing_louvain_one_level):
        want = build_hierarchy(g, "louvain", levels, seed=seed)
    assert len(got.maps) == len(want.maps) == levels
    for a, b in zip(got.maps, want.maps):
        assert a.num_clusters == b.num_clusters
        np.testing.assert_array_equal(a.assign, b.assign)


class TestIncrementalLinks:
    """``_louvain_one_level`` updates each node's community weights as nodes
    move instead of summing them afresh on every visit."""

    @settings(max_examples=100, deadline=None)
    @given(louvain_graphs(), st.integers(0, 2 ** 16))
    def test_hierarchies_match_summing_oracle(self, g, seed):
        for levels in (1, 2, 3):
            assert_louvain_matches_summing_oracle(g, levels, seed)

    # in these, a node is left with no edge into its own community while a
    # community it no longer touches keeps a smaller total: an emptied
    # entry kept at 0 would then win the scan
    @pytest.mark.parametrize("n, m, graph_seed, seed",
                             [(20, 40, 4, 3), (40, 40, 9, 0), (400, 800, 4, 0)])
    def test_uniform_random_graphs(self, n, m, graph_seed, seed):
        e = np.random.default_rng(graph_seed).integers(0, n, size=(m, 2))
        g = make_graph(n, e[e[:, 0] != e[:, 1]])
        assert_louvain_matches_summing_oracle(g, 3, seed)

    @settings(max_examples=100, deadline=None)
    @given(louvain_graphs(), st.integers(0, 2 ** 16))
    def test_round_weights_stay_integer_valued(self, g, seed):
        # the updates are exact only while every edge and self weight that
        # _quotient and _rounds pass on is an integer-valued float
        rounds, level = [], coarsen._louvain_one_level

        def recording(n, edges, weights, self_w, m2, rng):
            rounds.append((weights, self_w))
            return level(n, edges, weights, self_w, m2, rng)

        with mock.patch.object(coarsen, "_louvain_one_level", recording):
            louvain(g, seed)
        assert len(rounds) >= (g.num_edges > 0)
        for weights, self_w in rounds:
            for w in (weights, self_w):
                np.testing.assert_array_equal(w, np.round(w))
                assert np.all(w >= 0)
            # every round still carries each edge of g once
            assert weights.sum() + self_w.sum() / 2 == g.num_edges


@st.composite
def small_graphs(draw):
    """Graphs of at most 20 nodes, edgeless, sparse and mostly disconnected,
    or denser."""
    n = draw(st.integers(0, 20))
    p = draw(st.sampled_from([0.0, 0.1, 0.2, 0.4]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return make_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                          if rng.random() < p])


@st.composite
def multi_component_graphs(draw):
    """Graphs of several components, node ids shuffled: a small ring of
    cliques with isolated extras, or a disjoint union of small random
    graphs."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        g = ring_of_cliques(draw(st.integers(3, 5)), draw(st.integers(3, 4)),
                            extra=draw(st.integers(1, 3)))
    else:
        n, edges = 0, []
        for _ in range(draw(st.integers(2, 4))):
            k = draw(st.integers(1, 7))
            p = draw(st.sampled_from([0.3, 0.5, 0.8]))
            edges += [(n + i, n + j) for i in range(k)
                      for j in range(i + 1, k) if rng.random() < p]
            n += k
        g = make_graph(n, edges)
    sigma = rng.permutation(g.num_nodes)
    return make_graph(g.num_nodes, sigma[g.edge_array()])


def dense_adjacency(g):
    a = np.zeros((g.num_nodes, g.num_nodes))
    u, v = g.edge_array().T
    a[u, v] = a[v, u] = 1.0
    return a


def assert_betweenness_matches(g):
    adj = [set(map(int, g.neighbors(v))) for v in range(g.num_nodes)]
    want = betweenness_oracle(g.num_nodes, adj)
    edges = [tuple(e) for e in g.edge_array().tolist()]
    assert sorted(want) == edges
    _, bet = _brandes(dense_adjacency(g), g.edge_array())
    np.testing.assert_allclose(bet, [want[e] for e in edges],
                               rtol=1e-12, atol=0)


def assert_girvan_newman_matches(g, target):
    """Same partition as the whole removal sequence and as the former loop,
    in no more ``_brandes`` passes than the former loop."""
    got, calls = brandes_calls(girvan_newman, g, target)
    kept, kept_calls = brandes_calls(delete_girvan_newman_oracle, g, target)
    for want in (girvan_newman_oracle(g, target), kept):
        assert got.num_clusters == want.num_clusters
        np.testing.assert_array_equal(got.assign, want.assign)
    assert calls <= kept_calls


class TestGirvanNewmanAgainstOracle:
    @settings(max_examples=120, deadline=None)
    @given(small_graphs())
    @example(make_graph(0, []))
    @example(make_graph(1, []))
    def test_random_graphs(self, g):
        assert_betweenness_matches(g)
        for target in (None, 1, 2, 3):
            if target is None or target <= g.num_nodes:
                assert_girvan_newman_matches(g, target)

    @pytest.mark.parametrize("n", range(3, 13))
    def test_generalized_petersen(self, n):
        # GP(n, k) and GP(n, n - k) are the same graph
        for k in range(1, n // 2 + 1):
            g = generalized_petersen(n, k)
            assert_betweenness_matches(g)
            assert_same_as_csr_girvan_newman(g)
            for target in (None, 1, 2, 3):
                assert_girvan_newman_matches(g, target)

    @settings(max_examples=60, deadline=None)
    @given(multi_component_graphs())
    def test_several_components(self, g):
        assert_betweenness_matches(g)
        for target in (None, 1, 2, 3):
            if target is None or target <= g.num_nodes:
                assert_girvan_newman_matches(g, target)

    @settings(max_examples=60, deadline=None)
    @given(small_graphs())
    def test_modularity_bound_holds_along_the_sequence(self, g):
        # every later partition refines the current one, so none scores
        # above the current partition's bound
        if not g.num_edges:
            return
        parts = list(removal_sequence_oracle(g))
        later_best = -np.inf
        for part in reversed(parts):
            later_best = max(later_best, modularity(g, part))
            assert later_best <= modularity_bound_oracle(g, part) + 1e-12

    @settings(max_examples=60, deadline=None)
    @given(small_graphs())
    # isolated nodes: components of one node and of zero degree
    @example(make_graph(6, [(0, 1), (1, 2), (0, 2), (2, 3)]))
    @example(make_graph(4, [(1, 2)]))
    def test_component_bound_holds_along_the_sequence(self, g):
        # every later partition refines the current one and splits each
        # component C into p parts, so C adds at most B_C to its modularity;
        # the sum of the B_C is at most the whole-graph bound
        if not g.num_edges:
            return
        parts = list(removal_sequence_oracle(g))
        bounds = [component_bound_oracle(g, part) for part in parts]
        later_best = -np.inf
        for part, bound in zip(reversed(parts), reversed(bounds)):
            later_best = max(later_best, modularity(g, part))
            assert later_best - 1e-12 <= bound
            assert bound <= modularity_bound_oracle(g, part) + 1e-12
        # girvan_newman stops at the first partition whose bound is below
        # the best modularity so far: one pass, then one per removal
        best_q = -np.inf
        for stop, (part, bound) in enumerate(zip(parts, bounds)):
            if (q := modularity(g, part)) > best_q + 1e-12:
                best_q = q
            if bound < best_q - 1e-9:
                break
        assert brandes_calls(girvan_newman, g)[1] == stop + 1

    # _brandes passes of the former loop and of this one; a looser stop
    # bound runs more passes and fails here
    @pytest.mark.parametrize("make, kept, calls", [
        (dodecahedron_graph, 20, 14),
        (desargues_graph, 20, 15),
        (lambda: generalized_petersen(30, 7), 43, 33),
        (lambda: ring_of_cliques(8, 4), 15, 12),
    ], ids=["dodecahedron", "desargues", "GP(30,7)", "ring_of_cliques(8,4)"])
    def test_brandes_passes_are_pinned(self, make, kept, calls):
        g = make()
        assert brandes_calls(delete_girvan_newman_oracle, g)[1] == kept
        assert brandes_calls(girvan_newman, g)[1] == calls

    def test_stops_before_the_last_edge(self, monkeypatch):
        g = ring_of_cliques(8, 4)
        calls, spd_calls = [], []

        def counting(a, edges):
            calls.append(len(a))
            return _brandes(a, edges)

        def spd_counting(sub):
            spd_calls.append(sub.num_nodes)
            return spd_all_pairs(sub)

        monkeypatch.setattr(coarsen, "_brandes", counting)
        # wherever an hdse module holds spd_all_pairs, count its calls
        for name, mod in list(sys.modules.items()):
            if (name.startswith("hdse") and
                    getattr(mod, "spd_all_pairs", None) is spd_all_pairs):
                monkeypatch.setattr(mod, "spd_all_pairs", spd_counting)
        got = girvan_newman(g)
        # the full sequence solves once per edge removed and once before
        assert 1 < len(calls) < g.num_edges + 1
        assert spd_calls == []
        np.testing.assert_array_equal(got.assign,
                                      girvan_newman_oracle(g).assign)


def edge_betweenness_oracle(g, d):
    """The former sparse-path betweenness: Brandes over the hop levels of
    ``d = spd_all_pairs(g)``, all of whose level masks it holds at once."""
    n = g.num_nodes
    u, v = g.edge_array().T
    a = np.zeros((n, n))
    a[u, v] = a[v, u] = 1.0
    on = [d == k for k in range(int(d.max(initial=0)) + 1)]
    sigma = np.eye(n)
    for k in range(1, len(on)):
        sigma += ((sigma * on[k - 1]) @ a) * on[k]
    delta, w = np.zeros((n, n)), np.zeros((n, n))
    for k in range(len(on) - 1, 0, -1):
        np.divide(1.0 + delta, sigma, out=w, where=on[k])
        delta += ((w * on[k]) @ a) * sigma * on[k - 1]
    du, dv = d[:, u], d[:, v]
    return ((dv == du + 1) * sigma[:, u] * w[:, v]
            + (du == dv + 1) * sigma[:, v] * w[:, u]).sum(axis=0) / 2.0


def csr_girvan_newman_oracle(g, target=None):
    """The former Girvan-Newman: after each removal it rebuilds the
    component as a CSR graph, solves it with ``spd_all_pairs`` and relabels
    the components whether or not the removal split them."""
    n, m = g.num_nodes, max(g.num_edges, 1)
    ge = edges = g.edge_array()
    deg = g.degrees().astype(np.float64)
    floor = float(np.sum((deg / (2.0 * m)) ** 2))
    d = spd_all_pairs(g)
    bet = edge_betweenness_oracle(g, d)
    best, best_q = None, -np.inf
    while True:
        part = Partition.from_assignment(
            np.where(d >= 0, np.arange(n), n).min(axis=1, initial=n))
        if target is not None:
            best = part
            if best.num_clusters >= target:
                return best
        else:
            inside = np.sum(part.assign[ge[:, 0]] == part.assign[ge[:, 1]]) / m
            deg_sum = np.bincount(part.assign, deg, part.num_clusters)
            q = inside - float(np.sum((deg_sum / (2.0 * m)) ** 2))
            if q > best_q + 1e-12:
                best, best_q = part, q
            if inside - floor < best_q - 1e-9:
                return best
        if not len(edges):
            return best
        drop = np.argmax(bet >= bet.max() * (1.0 - 1e-9))
        comp = d[edges[drop, 0]] >= 0
        edges, bet = np.delete(edges, drop, axis=0), np.delete(bet, drop)
        mine = comp[edges[:, 0]]
        sub = make_graph(int(comp.sum()), (np.cumsum(comp) - 1)[edges[mine]])
        d[np.ix_(comp, comp)] = ds = spd_all_pairs(sub)
        bet[mine] = edge_betweenness_oracle(sub, ds)


def masked_brandes_oracle(a, edges):
    """The former ``_brandes``: boolean-indexed writes of each level's hop
    count and path counts, and a ``where=`` divide one level mask at a
    time."""
    n, k = len(a), 0
    d = np.eye(n, dtype=np.int32) - 1
    level = sigma = np.eye(n)
    while True:
        nxt = level @ a
        nxt[d >= 0] = 0.0
        new = nxt > 0.0
        if not new.any():
            break
        k += 1
        d[new] = k
        sigma += nxt
        level = nxt
    delta, w = np.zeros((n, n)), np.zeros((n, n))
    below = d == k
    for k in range(k, 0, -1):
        on, below = below, d == k - 1
        np.divide(1.0 + delta, sigma, out=w, where=on)
        delta += ((w * on) @ a) * sigma * below
    u, v = edges.T
    du, dv = d[:, u], d[:, v]
    return d, ((dv == du + 1) * sigma[:, u] * w[:, v]
               + (du == dv + 1) * sigma[:, v] * w[:, u]).sum(axis=0) / 2.0


def assert_same_as_masked_brandes(g):
    a, edges = dense_adjacency(g), g.edge_array()
    d, bet = _brandes(a, edges)
    want_d, want_bet = masked_brandes_oracle(a, edges)
    assert d.dtype == want_d.dtype and d.tobytes() == want_d.tobytes()
    assert bet.dtype == want_bet.dtype
    assert bet.tobytes() == want_bet.tobytes()
    return d, bet


def assert_same_as_csr_girvan_newman(g):
    d, bet = assert_same_as_masked_brandes(g)
    want_d = spd_all_pairs(g)
    assert d.dtype == want_d.dtype and d.tobytes() == want_d.tobytes()
    assert bet.dtype == np.float64
    assert bet.tobytes() == edge_betweenness_oracle(g, want_d).tobytes()
    for target in (None, 1, 2, 3):
        if target is None or target <= g.num_nodes:
            got, want = (girvan_newman(g, target),
                         csr_girvan_newman_oracle(g, target))
            assert got.num_clusters == want.num_clusters
            np.testing.assert_array_equal(got.assign, want.assign)


class TestDenseBrandesAgainstCsr:
    """One dense Brandes pass per removal equals the former CSR path:
    distances, betweenness bytes and partitions. Its distances and
    betweenness bytes also equal the masked pass, unreachable pairs
    included."""

    @settings(max_examples=100, deadline=None)
    @given(small_graphs())
    @example(make_graph(0, []))
    @example(make_graph(1, []))
    def test_small_graphs(self, g):
        assert_same_as_csr_girvan_newman(g)

    @settings(max_examples=60, deadline=None)
    @given(multi_component_graphs())
    def test_several_components(self, g):
        assert_same_as_csr_girvan_newman(g)

    def test_memory_does_not_grow_with_the_diameter(self):
        # a 400-cycle has 200 hop levels; holding one mask per level costs
        # 200 n^2 bytes (31 MiB) on top of the n^2 float arrays, while one
        # pass measured 12.3 MiB, 10 n^2 float64 arrays
        n = 400
        g = make_graph(n, [(i, (i + 1) % n) for i in range(n)])
        a = dense_adjacency(g)
        tracemalloc.start()
        try:
            d, bet = _brandes(a, g.edge_array())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * n * n * 8
        assert d.max() == n // 2
        # each edge of a 2k-cycle lies on k(k - 1)/2 paths of pairs closer
        # than k and on k antipodal paths of weight 1/2: k^2 / 2 in all
        np.testing.assert_array_equal(bet, np.full(n, (n // 2) ** 2 / 2))


class TestBrandesAgainstMaskedOracle:
    """Hop counting and 0/1 mask products give the masked writes' bytes
    (random graphs: ``TestDenseBrandesAgainstCsr``)."""

    @pytest.mark.parametrize("make", [
        dodecahedron_graph, desargues_graph,
        lambda: generalized_petersen(30, 7),
        lambda: make_graph(400, [(i, (i + 1) % 400) for i in range(400)]),
    ], ids=["dodecahedron", "desargues", "GP(30,7)", "cycle(400)"])
    def test_named_graphs(self, make):
        assert_same_as_masked_brandes(make())

    def test_peak_per_pair_on_a_long_ring(self):
        # the backward sweep holds d and five n x n float arrays (44 B per
        # pair); on a ring, m = n, the peak is the edge gather: d, sigma,
        # w, x and y's two operand gathers and y (56 B per pair).
        # masked_brandes_oracle peaks at 80 B per pair here. The peak per
        # pair does not depend on the ring's length: 56.01 B at n = 400,
        # 56.08 B at n = 200
        n = 400
        g = make_graph(n, [(i, (i + 1) % n) for i in range(n)])
        a = dense_adjacency(g)
        tracemalloc.start()
        try:
            d, bet = _brandes(a, g.edge_array())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 57 * n * n
        assert d.max() == n // 2
        np.testing.assert_array_equal(bet, np.full(n, (n // 2) ** 2 / 2))


def gnm_graph(n, m, seed):
    """m distinct edges on n nodes, drawn uniformly by a seeded generator."""
    u, v = np.triu_indices(n, 1)
    pick = np.random.default_rng(seed).choice(len(u), m, replace=False)
    return make_graph(n, np.column_stack([u[pick], v[pick]]))


def exact_betweenness_oracle(adj, sources):
    """Edge betweenness in exact rationals, by one Brandes BFS per node of
    ``sources`` (whole components): integer path counts, ``Fraction``
    dependencies. Each pair counts from both of its ends, hence the
    halving."""
    bet = {}
    for s in sources:
        sigma, dist, preds, order = {s: 1}, {s: 0}, {s: []}, [s]
        for v in order:  # grows while it is scanned: a BFS queue
            for u in adj[v]:
                if u not in dist:
                    sigma[u], dist[u], preds[u] = 0, dist[v] + 1, []
                    order.append(u)
                if dist[u] == dist[v] + 1:
                    sigma[u] += sigma[v]
                    preds[u].append(v)
        delta = dict.fromkeys(order, Fraction(0))
        for v in reversed(order):
            for u in preds[v]:
                c = Fraction(sigma[u], sigma[v]) * (1 + delta[v])
                key = (u, v) if u < v else (v, u)
                bet[key] = bet.get(key, 0) + c
                delta[u] += c
    return {e: b / 2 for e, b in bet.items()}


def exact_tie_walk(g):
    """Walk Girvan-Newman's full removal sequence as ``girvan_newman`` does,
    one ``coarsen._brandes`` pass on the block of the component that lost
    the edge, and check every removal against exact rationals:

    (a) each float betweenness is within 1e-12 of the exact one, relative;
    (b) the edges passing the tie test ``bet >= bet.max() * (1 - 1e-9)``
        are exactly those at the exact maximum.
    """
    n, edges = g.num_nodes, g.edge_array()
    keys = [tuple(e) for e in edges.tolist()]
    adj = [set(map(int, g.neighbors(v))) for v in range(n)]
    a = dense_adjacency(g)
    bet = coarsen._brandes(a, edges)[1]
    exact = exact_betweenness_oracle(adj, range(n))
    alive = np.ones(len(edges), dtype=bool)
    while alive.any():
        want = [exact[k] for k, on in zip(keys, alive) if on]
        np.testing.assert_allclose(bet[alive], [float(w) for w in want],
                                   rtol=1e-12, atol=0)
        tied = bet >= bet.max() * (1.0 - 1e-9)
        top = max(want)
        assert tied[alive].tolist() == [w == top for w in want]
        drop = np.argmax(tied)
        x, y = keys[drop]
        labels = components_oracle(n, adj)
        comp = labels == labels[x]
        adj[x].discard(y)
        adj[y].discard(x)
        a[x, y] = a[y, x] = 0.0
        alive[drop], bet[drop] = False, -np.inf
        idx = np.flatnonzero(comp)
        mine = alive & comp[edges[:, 0]]
        bet[mine] = coarsen._brandes(a[np.ix_(idx, idx)],
                                     (np.cumsum(comp) - 1)[edges[mine]])[1]
        exact.update(exact_betweenness_oracle(adj, idx.tolist()))


def brandes_inputs(fn, g, *args):
    """The (adjacency, edges) bytes of every ``_brandes`` pass of
    ``fn(g, *args)``."""
    calls = []

    def recording(a, edges):
        calls.append((a.tobytes(), edges.tobytes()))
        return _brandes(a, edges)

    with mock.patch.object(coarsen, "_brandes", recording):
        fn(g, *args)
    return calls


class TestTieRuleAgainstExactBetweenness:
    """Girvan-Newman promises its partition, not its betweenness bytes: the
    float passes may round differently under another BLAS, but ties found
    with the 1e-9 slack are the exact ties, at every removal."""

    @pytest.mark.parametrize("make", [
        dodecahedron_graph, desargues_graph,
        lambda: generalized_petersen(5, 2),
        lambda: generalized_petersen(30, 7),
        lambda: barbell_graph(5),
        lambda: ring_of_cliques(8, 4),
        lambda: gnm_graph(16, 32, seed=1),
        lambda: gnm_graph(24, 40, seed=2),
        lambda: gnm_graph(30, 90, seed=3),
    ], ids=["dodecahedron", "desargues", "GP(5,2)", "GP(30,7)", "barbell(5)",
            "ring_of_cliques(8,4)", "random(16,32)", "random(24,40)",
            "random(30,90)"])
    def test_full_removal_sequence(self, make):
        g = make()
        walked = brandes_inputs(exact_tie_walk, g)
        # the walk is girvan_newman's own removal sequence: to reach n
        # singletons it removes every edge
        assert walked == brandes_inputs(girvan_newman, g, g.num_nodes)
        assert len(walked) == g.num_edges + 1


def quotient_oracle(edges, weights, assign, c):
    """Coarse edge weights and per-cluster intra weights through dicts."""
    coarse, intra = {}, [0.0] * c
    for (u, v), w in zip(edges, weights):
        a, b = sorted((int(assign[u]), int(assign[v])))
        if a == b:
            intra[a] += w
        else:
            coarse[(a, b)] = coarse.get((a, b), 0.0) + w
    return sorted(coarse.items()), intra


def assert_quotient_matches(edges, weights, assign, c):
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    weights = np.asarray(weights, dtype=np.float64)
    assign = np.asarray(assign, dtype=np.int64)
    ce, cw, intra = _quotient(edges, weights, assign, c)
    want_edges, want_intra = quotient_oracle(edges.tolist(), weights.tolist(),
                                             assign, c)
    assert ce.shape == (len(want_edges), 2) and ce.dtype == np.int64
    assert [(tuple(e), w) for e, w in zip(ce.tolist(), cw.tolist())] \
        == want_edges
    assert intra.tolist() == want_intra


class TestQuotient:
    def test_no_edges(self):
        assert_quotient_matches([], [], [0, 1, 1], 2)

    def test_all_edges_intra_cluster(self):
        assert_quotient_matches([(0, 1), (1, 2), (3, 4)], [1, 2, 3],
                                [1, 1, 1, 0, 0], 2)

    def test_repeated_coarse_edges(self):
        # (0, 2), (0, 3) and (1, 3) all map onto (1, 0), which is coarse edge
        # (0, 1); (2, 4) and (3, 4) both land on (0, 2); (0, 1) is intra
        assert_quotient_matches([(0, 1), (0, 2), (0, 3), (1, 3), (2, 4),
                                 (3, 4)], [4, 1, 1, 2, 5, 3],
                                [1, 1, 0, 0, 2], 3)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_dict_oracle(self, data):
        n = data.draw(st.integers(1, 15))
        c = data.draw(st.integers(1, n))
        pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1),
                                             st.integers(0, n - 1)),
                                   max_size=40))
        edges = sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v})
        weights = data.draw(st.lists(st.integers(1, 5), min_size=len(edges),
                                     max_size=len(edges)))
        assign = data.draw(st.lists(st.integers(0, c - 1), min_size=n,
                                    max_size=n))
        assert_quotient_matches(edges, weights, assign, c)


class TestGirvanNewman:
    def test_barbell_bridge_removed_first(self):
        g = two_cliques_bridge(5)
        # oracle: the bridge has strictly maximal betweenness
        adj = [set(map(int, g.neighbors(v))) for v in range(g.num_nodes)]
        bet = betweenness_oracle(g.num_nodes, adj)
        assert max(bet, key=bet.get) == (0, 5)
        p = girvan_newman(g, target=2)
        assert p.num_clusters == 2
        assert len(set(p.assign[:5])) == 1
        assert len(set(p.assign[5:])) == 1

    def test_triangle_target_one(self):
        g = make_graph(3, [(0, 1), (1, 2), (0, 2)])
        p = girvan_newman(g, target=1)
        assert p.num_clusters == 1

    def test_target_too_large(self):
        with pytest.raises(GraphValidationError):
            girvan_newman(make_graph(3, [(0, 1)]), target=4)

    @pytest.mark.parametrize("target", [0, -3])
    def test_target_below_one_refused_before_allocating(self, monkeypatch,
                                                        target):
        # it once returned the components partition, one cluster here
        g = dodecahedron_graph()
        monkeypatch.setattr(coarsen, "_brandes", None)
        tracemalloc.start()
        try:
            with pytest.raises(GraphValidationError,
                               match=f"target must be >= 1, got {target}"):
                girvan_newman(g, target)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < g.num_nodes ** 2 * 8

    def test_modularity_peak_beats_trivial(self):
        g = two_cliques_bridge(4)
        p = girvan_newman(g, target=None)
        trivial = Partition(np.zeros(8, dtype=np.int64), 1)
        assert modularity(g, p) >= modularity(g, trivial)

    def test_dodecahedron_peak_has_adjacent_clusters(self):
        g = dodecahedron_graph()
        p = girvan_newman(g, target=None)
        # golden values from tracing the deterministic removal sequence
        assert p.num_clusters == 4
        assert sorted(np.bincount(p.assign).tolist()) == [5, 5, 5, 5]
        edges = g.edge_array()
        assert np.any(p.assign[edges[:, 0]] != p.assign[edges[:, 1]])

    def test_pair_limit_counts_nodes_or_edges(self, monkeypatch):
        # n * max(n, m) pairs: the dense adjacency is n x n and the edge
        # gathers of each Brandes pass are n x m
        for g in (two_cliques_bridge(4), make_graph(9, [(0, 1)])):
            count = g.num_nodes * max(g.num_nodes, g.num_edges)
            monkeypatch.setattr(graph, "MAX_PAIRS", count)
            girvan_newman(g)
            monkeypatch.setattr(graph, "MAX_PAIRS", count - 1)
            with pytest.raises(MemoryError, match=f"limit of {count - 1}"):
                girvan_newman(g)

    def test_work_limit_refuses_before_allocating(self, monkeypatch):
        # n * m * (n^2 + 40 m) units: one unit over the (lowered) limit is
        # refused with the limit in the message, before the n x n adjacency
        g = ring_of_cliques(8, 4)
        n, m = g.num_nodes, g.num_edges
        work = n * m * (n * n + 40 * m)
        monkeypatch.setattr(graph, "MAX_GN_WORK", work)
        np.testing.assert_array_equal(girvan_newman(g).assign,
                                      girvan_newman_oracle(g).assign)
        monkeypatch.setattr(graph, "MAX_GN_WORK", work - 1)
        monkeypatch.setattr(coarsen, "_brandes", None)
        tracemalloc.start()
        try:
            with pytest.raises(MemoryError,
                               match=fr"limit of {work - 1} \(MAX_GN_WORK\)"):
                girvan_newman(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8

    def test_betweenness_star_center(self):
        # star with 4 spokes: a spoke carries the one shortest path from its
        # leaf to the center and those from its leaf to the 3 other leaves
        g = make_graph(5, [(0, i) for i in range(1, 5)])
        adj = [set(map(int, g.neighbors(v))) for v in range(5)]
        bet = betweenness_oracle(5, adj)
        for e, b in bet.items():
            assert b == pytest.approx(4.0)  # 1 + 3 paths through the spoke


# girvan_newman on each graph sent on stdin as [n, edges]; prints the
# partitions' assign arrays as JSON
GN_CHILD = """
import json, sys
from hdse.coarsen import girvan_newman
from hdse.graph import make_graph
print(json.dumps([girvan_newman(make_graph(n, e)).assign.tolist()
                  for n, e in json.load(sys.stdin)]))
"""


def test_girvan_newman_partitions_do_not_depend_on_blas_threads():
    # _brandes sums betweenness through BLAS products, whose rounding may
    # change with the thread count; the partition must not. Products past
    # about 64^3 multiply-adds run threaded, so the larger graphs have
    # two threads at work under OPENBLAS_NUM_THREADS=2
    rng = np.random.default_rng(0)
    graphs = [dodecahedron_graph(), desargues_graph(),
              generalized_petersen(5, 2), generalized_petersen(30, 7),
              barbell_graph(5), ring_of_cliques(8, 4),
              ring_of_cliques(20, 4)]
    for n, m in ((40, 80), (70, 280), (120, 240), (150, 300)):
        e = rng.integers(0, n, size=(m, 2))
        graphs.append(make_graph(n, e[e[:, 0] != e[:, 1]]))
    payload = json.dumps([[g.num_nodes, g.edge_array().tolist()]
                          for g in graphs])
    src = Path(__file__).resolve().parents[1] / "src"
    results = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(src), env.get("PYTHONPATH")]))
        run = subprocess.run([sys.executable, "-c", GN_CHILD], input=payload,
                             env=env, capture_output=True, text=True,
                             timeout=120, check=True)
        results.append(json.loads(run.stdout))
    assert len(results[0]) == len(graphs)
    assert results[0] == results[1]


class TestHeavyEdgeMatching:
    def test_p4_half(self):
        g = make_graph(4, [(0, 1), (1, 2), (2, 3)])
        p = heavy_edge_matching(g, 0.5)
        assert p.num_clusters == 2
        assert np.array_equal(p.assign, [0, 0, 1, 1])

    def test_edgeless_stays_singletons(self):
        g = make_graph(4, [])
        p = heavy_edge_matching(g, 0.25)
        assert p.num_clusters == 4

    def test_eight_cycle(self):
        g = make_graph(8, [(i, (i + 1) % 8) for i in range(8)])
        p = heavy_edge_matching(g, 0.5)
        assert p.num_clusters == 4
        assert np.array_equal(p.assign, [0, 0, 1, 1, 2, 2, 3, 3])

    def test_bad_ratio(self):
        g = make_graph(2, [(0, 1)])
        for ratio in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(GraphValidationError):
                heavy_edge_matching(g, ratio)


@pytest.mark.parametrize("n", [0, 1])
def test_every_partitioner_takes_empty_and_single_node_graphs(n):
    g = make_graph(n, [])
    for part in (louvain(g), girvan_newman(g), heavy_edge_matching(g, 0.5)):
        assert part.num_clusters == n
        assert part.assign.tolist() == list(range(n))


class TestCoarseGraph:
    def test_p3_two_clusters(self):
        g = make_graph(3, [(0, 1), (1, 2)])
        cg = build_coarse_graph(g, Partition(np.array([0, 0, 1]), 2))
        assert cg.num_nodes == 2
        assert cg.num_edges == 1

    def test_triangle_collapses_to_point(self):
        g = make_graph(3, [(0, 1), (1, 2), (0, 2)])
        cg = build_coarse_graph(g, Partition(np.zeros(3, dtype=np.int64), 1))
        assert cg.num_nodes == 1
        assert cg.num_edges == 0

    def test_clique_means(self):
        g = two_cliques_bridge(4)
        feats = np.arange(8, dtype=float)[:, None]
        g = make_graph(8, g.edge_array(), features=feats)
        p = Partition(np.array([0, 0, 0, 0, 1, 1, 1, 1]), 2)
        cg = build_coarse_graph(g, p)
        assert cg.num_nodes == 2
        assert cg.num_edges == 1
        # a coarse level is structure only
        assert cg.features is None
        assert cg.node_labels is None


class TestHierarchy:
    def test_zero_levels(self):
        g = two_cliques_bridge(4)
        h = build_hierarchy(g, "louvain", 0)
        assert len(h.levels) == 1
        assert not h.maps

    def test_louvain_two_level(self):
        h = build_hierarchy(two_cliques_bridge(4), "louvain", 1, seed=0)
        assert h.levels[1].num_nodes == 2

    def test_collapse_repeats_trivial_level(self):
        g = make_graph(2, [(0, 1)])
        h = build_hierarchy(g, "hem", 2, ratio=0.5)
        assert [lvl.num_nodes for lvl in h.levels] == [2, 1, 1]

    def test_unknown_algo(self):
        with pytest.raises(GraphValidationError):
            build_hierarchy(make_graph(2, [(0, 1)]), "spectral", 1)

    def test_projection_columns_orthonormal(self):
        rng = np.random.default_rng(0)
        for seed in range(5):
            edges = [(i, j) for i in range(20) for j in range(i + 1, 20)
                     if rng.random() < 0.2]
            g = make_graph(20, edges, features=rng.standard_normal((20, 3)))
            assert_projection_chain(build_hierarchy(g, "louvain", 2, seed=seed))

    def test_surjectivity_and_coarse_edge_soundness(self):
        rng = np.random.default_rng(1)
        for algo in ("louvain", "newman", "hem"):
            edges = [(i, j) for i in range(15) for j in range(i + 1, 15)
                     if rng.random() < 0.25]
            g = make_graph(15, edges)
            h = build_hierarchy(g, algo, 2, seed=3)
            for k, part in enumerate(h.maps):
                assert set(part.assign.tolist()) == set(range(part.num_clusters))
                fine = h.levels[k].edge_array()
                for a, b in h.levels[k + 1].edge_array():
                    crossing = [(u, v) for u, v in fine
                                if {part.assign[u], part.assign[v]} == {a, b}]
                    assert crossing, f"coarse edge ({a},{b}) has no witness"

    def test_projected_features_follow_normalized_chain(self):
        g = two_cliques_bridge(4)
        feats = np.arange(8, dtype=float)[:, None]
        g = make_graph(8, g.edge_array(), features=feats)
        h = build_hierarchy(g, "louvain", 1, seed=0)
        proj = projection_oracle(h.maps[0])
        expected = proj.T @ feats
        np.testing.assert_allclose(h.projected_features[1], expected)

    @pytest.mark.parametrize("levels", [0, 1, 2])
    @pytest.mark.parametrize("algo", ["louvain", "newman", "hem"])
    def test_projected_features_match_dense_oracle(self, algo, levels):
        rng = np.random.default_rng(levels)
        edges = [(i, j) for i in range(16) for j in range(i + 1, 16)
                 if rng.random() < 0.25]
        g = make_graph(16, edges, features=rng.standard_normal((16, 4)))
        h = build_hierarchy(g, algo, levels, seed=levels)
        hp = permute_hierarchy(h, NodePermutation.random(16, rng))
        for x in (h, hp, hierarchy_from_json(hierarchy_to_json(h)),
                  hierarchy_from_json(hierarchy_to_json(hp))):
            assert_projection_chain(x)
        # relabelling the base level moves no node to another cluster
        for got, want in zip(hp.projected_features[1:],
                             h.projected_features[1:]):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_no_features_no_projection(self):
        h = build_hierarchy(two_cliques_bridge(4), "louvain", 1)
        assert h.projected_features is None

    @pytest.mark.parametrize("levels", [0, 1, 2])
    def test_permute_keeps_projected_features(self, levels):
        rng = np.random.default_rng(levels)
        g = make_graph(8, two_cliques_bridge(4).edge_array(),
                       features=rng.standard_normal((8, 3)))
        h = build_hierarchy(g, "hem", levels)
        hp = permute_hierarchy(h, NodePermutation.random(8, rng))
        assert len(hp.projected_features) == levels + 1
        # hierarchy_from_json recomputes the chain from the permuted base
        # features and the permuted first map
        rebuilt = hierarchy_from_json(hierarchy_to_json(hp))
        for got, want in zip(hp.projected_features,
                             rebuilt.projected_features):
            np.testing.assert_allclose(got, want, atol=1e-12)
        np.testing.assert_array_equal(hp.projected_features[0],
                                      hp.levels[0].features)


    @pytest.mark.parametrize("algo", ["louvain", "newman", "hem"])
    def test_empty_graph_gives_empty_levels(self, algo):
        h = build_hierarchy(make_graph(0, []), algo, 2)
        assert [lvl.num_nodes for lvl in h.levels] == [0, 0, 0]
        assert [p.num_clusters for p in h.maps] == [0, 0]
        back = hierarchy_from_json(hierarchy_to_json(h))
        assert [lvl.num_nodes for lvl in back.levels] == [0, 0, 0]
        for x in (h, back):
            assert x.coarsening_ratios == [1.0, 1.0]
            assert all(type(r) is float for r in x.coarsening_ratios)

    def test_projected_features_do_not_overflow(self):
        # the exact level-1 value is 2e308 / sqrt(2), about 1.414e308
        g = make_graph(2, [(0, 1)], features=[[1e308], [1e308]])
        h = build_hierarchy(g, "louvain", 1)
        assert h.maps[0].num_clusters == 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x1 = h.projected_features[1]
        assert np.isfinite(x1).all()
        np.testing.assert_allclose(x1, [[np.sqrt(2) * 1e308]], rtol=1e-15)

    def test_fields_are_graph_and_maps(self):
        h = build_hierarchy(two_cliques_bridge(4), "louvain", 2, seed=1)
        assert [f.name for f in fields(Hierarchy) if f.init] == \
            ["graph", "maps", "algo", "seed"]
        assert h.levels[0] is h.graph
        for k, part in enumerate(h.maps):
            assert h.levels[k + 1] == build_coarse_graph(h.levels[k], part)
        assert set(json.loads(hierarchy_to_json(h))) == \
            {"graph", "maps", "algo", "seed"}

    @pytest.mark.parametrize("algo, sizes", [("louvain", [48, 6, 3]),
                                             ("hem", [48, 24, 12])],
                             ids=["louvain", "hem"])
    def test_each_level_is_contracted_once(self, monkeypatch, algo, sizes):
        calls = []

        def counting(g, p):
            calls.append(g.num_nodes)
            return build_coarse_graph(g, p)

        monkeypatch.setattr(coarsen, "build_coarse_graph", counting)
        h = build_hierarchy(ring_of_cliques(6, 8), algo, 2)
        assert calls == sizes[:-1]
        assert [lvl.num_nodes for lvl in h.levels] == sizes
        assert h.levels == Hierarchy(h.graph, h.maps).levels

    @pytest.mark.parametrize("algo, ratio, seed", [("hem", 2.0, 0),
                                                   ("louvain", 0.5, -1)])
    def test_bad_config_refused_on_a_single_node(self, algo, ratio, seed):
        # the partitioner runs on every level, however small
        with pytest.raises(GraphValidationError):
            build_hierarchy(make_graph(1, []), algo, 1, ratio=ratio, seed=seed)

    def test_map_of_wrong_size_is_refused(self):
        g = two_cliques_bridge(4)
        with pytest.raises(GraphValidationError, match="size mismatch"):
            Hierarchy(g, [Partition(np.zeros(7, dtype=np.int64), 1)])


class TestComposedProjection:
    """``Hierarchy.image(c)`` is the composed level-0 -> level-c map."""

    def make_three_level(self):
        g = make_graph(8, [(i, i + 1) for i in range(7)])
        return build_hierarchy(g, "hem", 2, ratio=0.5)

    def test_level_one_is_first_projection(self):
        h = self.make_three_level()
        np.testing.assert_array_equal(h.image(1), h.maps[0].assign)

    def test_level_two_composes_assignments(self):
        h = self.make_three_level()
        # oracle: product of the dense one-hot matrices of both maps
        raw = np.sign(projection_oracle(h.maps[0])
                      @ projection_oracle(h.maps[1]))
        assert np.all(raw.sum(axis=1) == 1)
        np.testing.assert_array_equal(h.image(2), np.argmax(raw, axis=1))
        np.testing.assert_array_equal(h.image(2),
                                      h.maps[1].assign[h.maps[0].assign])

    def test_trivial_middle_level(self):
        g = make_graph(2, [(0, 1)])
        h = build_hierarchy(g, "hem", 2, ratio=0.5)
        np.testing.assert_array_equal(h.image(2), [0, 0])


def test_hierarchy_json_roundtrip():
    g = make_graph(8, [(i, (i + 1) % 8) for i in range(8)],
                   features=np.eye(8)[:, :3])
    h = build_hierarchy(g, "louvain", 2, seed=9)
    h2 = hierarchy_from_json(hierarchy_to_json(h))
    assert [lvl.num_nodes for lvl in h2.levels] == \
        [lvl.num_nodes for lvl in h.levels]
    for a, b in zip(h.maps, h2.maps):
        assert np.array_equal(a.assign, b.assign)
    assert h2.algo == h.algo and h2.seed == h.seed


def test_hierarchy_json_maps_are_checked():
    # a 20 -> 5 -> 2 hierarchy
    h = build_hierarchy(make_graph(20, [(i, i + 1) for i in range(19)]),
                        "louvain", 2)
    obj = json.loads(hierarchy_to_json(h))
    assert [len(a) for a in obj["maps"]] == [20, 5]
    for k, bad in ((0, obj["maps"][0][:-1]), (1, obj["maps"][1] + [0]),
                   (1, [5, 0, 0, 1, 1]), (0, [True] + obj["maps"][0][1:]),
                   (1, "01011")):
        doc = dict(obj, maps=list(obj["maps"]))
        doc["maps"][k] = bad
        with pytest.raises(GraphParseError, match=f"map {k} "):
            hierarchy_from_json(json.dumps(doc))
    # cluster 1 of level 1 left empty
    doc = dict(obj, maps=[obj["maps"][0], [0, 0, 2, 2, 2]])
    with pytest.raises(GraphValidationError, match="surjective"):
        hierarchy_from_json(json.dumps(doc))


def test_hierarchy_json_old_format_is_refused():
    """A file with the coarse levels and ratios stored is not read."""
    h = build_hierarchy(make_graph(20, [(i, i + 1) for i in range(19)]),
                        "louvain", 2)
    old = {"levels": [g.to_json_dict() for g in h.levels],
           "maps": [p.assign.tolist() for p in h.maps],
           "ratios": h.coarsening_ratios, "algo": h.algo, "seed": h.seed}
    with pytest.raises(GraphParseError, match="'graph'.*'maps'"):
        hierarchy_from_json(json.dumps(old))
    # the new keys with the old ones added are refused as well
    new = json.loads(hierarchy_to_json(h))
    for key in ("levels", "ratios"):
        with pytest.raises(GraphParseError, match="exactly"):
            hierarchy_from_json(json.dumps({**new, key: old[key]}))


def assert_same_bytes(a, b):
    """Equal dtype, shape and bytes; -0.0 and 0.0 differ, as they do on disk."""
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def assert_hierarchies_identical(a, b):
    assert len(a.levels) == len(b.levels)
    for ga, gb in zip(a.levels, b.levels):
        assert ga.num_nodes == gb.num_nodes
        assert_same_bytes(ga.indptr, gb.indptr)
        assert_same_bytes(ga.indices, gb.indices)
        for x, y in ((ga.features, gb.features),
                     (ga.node_labels, gb.node_labels)):
            assert (x is None) == (y is None)
            if x is not None:
                assert_same_bytes(x, y)
    assert len(a.maps) == len(b.maps)
    for pa, pb in zip(a.maps, b.maps):
        assert_same_bytes(pa.assign, pb.assign)
        assert pa.num_clusters == pb.num_clusters
    assert [(type(r), r) for r in a.coarsening_ratios] == \
        [(type(r), r) for r in b.coarsening_ratios]
    assert (a.algo, a.seed) == (b.algo, b.seed)


@st.composite
def hierarchies(draw):
    """Library-built hierarchies of small random graphs, any feature values,
    optionally with the base relabelled, and any algorithm name and seed."""
    n = draw(st.integers(0, 10))
    seed = draw(st.integers(0, 2 ** 16))
    rng = np.random.default_rng(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < 0.35]
    features = None
    if draw(st.booleans()):
        d = draw(st.integers(0, 3))
        values = draw(st.lists(st.floats(width=64), min_size=n * d,
                               max_size=n * d))
        features = np.array(values, dtype=np.float64).reshape(n, d)
    labels = draw(st.none() | st.lists(st.integers(-2 ** 63, 2 ** 63 - 1),
                                       min_size=n, max_size=n))
    g = make_graph(n, edges, features=features, labels=labels)
    algo = draw(st.sampled_from(["louvain", "newman", "hem"]))
    h = build_hierarchy(g, algo, draw(st.integers(0, 3)), seed=seed)
    if draw(st.booleans()):
        h = permute_hierarchy(h, NodePermutation.random(n, rng))
    return replace(h, algo=draw(st.text(max_size=5)), seed=draw(st.integers()))


@settings(max_examples=150, deadline=None)
@given(hierarchies())
def test_json_round_trip_is_exact_or_rejected(h):
    if any(g.num_nodes == 0 and g.features is not None and g.features.shape[1]
           for g in h.levels):
        # "features": [] has no row to carry the width: refused on writing
        with pytest.raises(GraphValidationError):
            hierarchy_to_json(h)
        return
    with np.errstate(all="ignore"):
        try:
            back = hierarchy_from_json(hierarchy_to_json(h))
        except GraphParseError:
            # JSON carries only finite features; nothing else may be refused
            assert not all(np.isfinite(g.features).all() for g in h.levels
                           if g.features is not None)
            return
    assert_hierarchies_identical(h, back)
