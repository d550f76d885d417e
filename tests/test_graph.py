import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdse.graph import (Graph, GraphParseError, GraphValidationError,
                        NodePermutation, load_edge_list, load_json_graph,
                        make_graph, permute, validate, write_edge_list)


def random_graph(n, p, seed):
    rng = np.random.default_rng(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    return make_graph(n, edges)


class TestLoadEdgeList:
    def test_path_p3(self):
        g = load_edge_list("0 1\n1 2")
        assert g.num_nodes == 3
        assert g.num_edges == 2

    def test_reversed_duplicate_collapsed(self):
        g = load_edge_list("0 1\n1 0")
        assert g.num_nodes == 2
        assert g.num_edges == 1

    def test_comments_and_header(self):
        g = load_edge_list("# a comment\nn 5\n0 1\n")
        assert g.num_nodes == 5
        assert g.num_edges == 1

    def test_malformed_line_reports_number(self):
        with pytest.raises(GraphParseError, match="line 2"):
            load_edge_list("0 1\n0 1 2")

    def test_self_loop_rejected(self):
        with pytest.raises(GraphValidationError):
            load_edge_list("0 0")

    def test_bytes_accepted(self):
        g = load_edge_list(b"0 1\n")
        assert g.num_edges == 1

    def test_header_below_max_id_rejected(self):
        with pytest.raises(GraphValidationError):
            load_edge_list("n 2\n0 5")


class TestLoadJsonGraph:
    def test_single_edge(self):
        g = load_json_graph('{"num_nodes":2,"edges":[[0,1]]}')
        assert g.num_nodes == 2
        assert g.num_edges == 1

    def test_features_attached(self):
        g = load_json_graph(
            '{"num_nodes":3,"edges":[[0,1],[1,2]],"features":[[1],[0],[1]]}')
        assert g.features.shape == (3, 1)
        assert g.features.dtype == np.float64

    def test_feature_row_mismatch(self):
        with pytest.raises(GraphValidationError):
            load_json_graph('{"num_nodes":2,"edges":[[0,1]],"features":[[1]]}')

    def test_empty_graph_features_round_trip(self):
        # a 0-node graph writes "features": [], which has no row to tell the
        # width from: a width above 0 is refused, width 0 round-trips
        g = make_graph(0, [], features=np.zeros((0, 3)), labels=[])
        with pytest.raises(GraphValidationError):
            g.to_json_dict()
        g = make_graph(0, [], features=np.zeros((0, 0)), labels=[])
        back = load_json_graph(json.dumps(g.to_json_dict()))
        assert back == g and back.features.shape == (0, 0)
        assert back.node_labels.shape == (0,)

    def test_bad_json(self):
        with pytest.raises(GraphParseError):
            load_json_graph("{not json")


class TestPermute:
    def test_identity(self):
        g = random_graph(6, 0.4, 1)
        assert permute(g, NodePermutation.identity(6)) == g

    def test_p3_swap_ends(self):
        g = make_graph(3, [(0, 1), (1, 2)])
        sigma = NodePermutation(np.array([2, 1, 0]))
        assert permute(g, sigma) == g

    def test_degree_multiset_preserved(self):
        g = random_graph(10, 0.3, 2)
        sigma = NodePermutation.random(10, np.random.default_rng(3))
        h = permute(g, sigma)
        assert sorted(g.degrees()) == sorted(h.degrees())

    def test_non_bijection_rejected(self):
        with pytest.raises(GraphValidationError):
            NodePermutation(np.array([0, 0, 1]))

    def test_features_follow_nodes(self):
        g = make_graph(3, [(0, 1)], features=[[1.0], [2.0], [3.0]])
        sigma = NodePermutation(np.array([1, 2, 0]))
        h = permute(g, sigma)
        assert h.features[1, 0] == 1.0
        assert h.features[0, 0] == 3.0


@given(st.integers(min_value=1, max_value=12), st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_permute_roundtrip(n, seed):
    rng = np.random.default_rng(seed)
    g = random_graph(n, 0.4, seed)
    sigma = NodePermutation.random(n, rng)
    assert permute(permute(g, sigma), sigma.inverse()) == g


@given(st.integers(min_value=0, max_value=12), st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_edge_list_roundtrip(n, seed):
    g = random_graph(n, 0.3, seed)
    assert load_edge_list(write_edge_list(g)) == g


@given(st.integers(min_value=2, max_value=10), st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_validation_rejects_corrupted(n, seed):
    g = random_graph(n, 0.5, seed)
    validate(g)
    rng = np.random.default_rng(seed)
    bad = Graph(g.num_nodes, g.indptr.copy(), g.indices.copy())
    if len(bad.indices):
        # corrupt a neighbor entry: self-loop or out-of-range
        i = rng.integers(len(bad.indices))
        us = np.searchsorted(bad.indptr, i, side="right") - 1
        bad.indices[i] = us if rng.random() < 0.5 else n + 3
        with pytest.raises(GraphValidationError):
            validate(bad)
    else:
        bad.indptr[-1] = 5
        with pytest.raises(GraphValidationError):
            validate(bad)


def test_validation_rejects_asymmetric_csr():
    # 0 lists 1 as a neighbour, but 1 does not list 0
    bad = Graph(3, np.array([0, 1, 1, 2]), np.array([1, 1]))
    with pytest.raises(GraphValidationError, match="not symmetric"):
        validate(bad)


def test_validation_rejects_unsorted_neighbours():
    # symmetric and loop-free, but node 0 lists its neighbours as [2, 1]
    bad = Graph(3, np.array([0, 2, 3, 4]), np.array([2, 1, 0, 0]))
    with pytest.raises(GraphValidationError, match="ascending"):
        validate(bad)


def test_json_roundtrip_with_labels():
    g = make_graph(4, [(0, 1), (2, 3)], features=[[1.0]] * 4,
                   labels=[0, 0, 1, 1])
    g2 = load_json_graph(json.dumps(g.to_json_dict()))
    assert g2 == g


def csr_oracle(num_nodes, edges):
    """CSR arrays by ``np.unique(axis=0)`` over the (lo, hi) rows and a
    ``lexsort`` of both directions (the oracle for ``make_graph``)."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    lo = np.minimum(edges[:, 0], edges[:, 1]) if len(edges) else edges[:, 0]
    hi = np.maximum(edges[:, 0], edges[:, 1]) if len(edges) else edges[:, 1]
    uniq = np.unique(np.column_stack([lo, hi]), axis=0) if len(edges) else edges
    both = np.concatenate([uniq, uniq[:, ::-1]]) if len(uniq) else uniq
    order = np.lexsort((both[:, 1], both[:, 0])) if len(both) else []
    both = both[order] if len(both) else both
    counts = np.bincount(both[:, 0], minlength=num_nodes) if len(both) \
        else np.zeros(num_nodes, dtype=np.int64)
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    indices = both[:, 1].astype(np.int64) if len(both) \
        else np.empty(0, dtype=np.int64)
    return indptr, indices


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_make_graph_csr_matches_oracle(data):
    n = data.draw(st.integers(0, 15))
    node = st.integers(0, max(n - 1, 0))
    pairs = data.draw(st.lists(st.tuples(node, node), max_size=40 if n else 0))
    edges = [(u, v) for u, v in pairs if u != v]
    # repeat a prefix reversed, so duplicates in both orientations occur
    edges += [(v, u) for u, v in edges[:data.draw(st.integers(0, len(edges)))]]
    g = make_graph(n, np.array(edges, dtype=np.int64).reshape(-1, 2))
    indptr, indices = csr_oracle(n, edges)
    for got, want in ((g.indptr, indptr), (g.indices, indices)):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
