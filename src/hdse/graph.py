"""Immutable undirected graph in CSR form, loaders and permutation utilities."""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np


class GraphParseError(ValueError):
    """Raised when an input file cannot be parsed."""


class GraphValidationError(ValueError):
    """Raised when a graph violates a structural invariant, or when a
    setting is out of range (a clip, ratio, level count, seed, target or
    demo hyperparameter)."""


@dataclass(frozen=True)
class Graph:
    """Undirected, unweighted, simple graph.

    Adjacency is stored as CSR (indptr/indices) with sorted neighbor lists.
    ``features`` is an optional (num_nodes, d) float64 matrix, ``node_labels``
    an optional integer class per node.
    """

    num_nodes: int
    indptr: np.ndarray
    indices: np.ndarray
    features: np.ndarray | None = None
    node_labels: np.ndarray | None = None

    @property
    def num_edges(self) -> int:
        return len(self.indices) // 2

    def neighbors(self, u: int) -> np.ndarray:
        return self.indices[self.indptr[u]:self.indptr[u + 1]]

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def edge_array(self) -> np.ndarray:
        """Edges as an (m, 2) array with u < v, sorted lexicographically."""
        us = np.repeat(np.arange(self.num_nodes), np.diff(self.indptr))
        mask = us < self.indices
        return np.column_stack([us[mask], self.indices[mask]])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        if self.num_nodes != other.num_nodes:
            return False
        if not (np.array_equal(self.indptr, other.indptr)
                and np.array_equal(self.indices, other.indices)):
            return False
        for a, b in ((self.features, other.features),
                     (self.node_labels, other.node_labels)):
            if (a is None) != (b is None):
                return False
            if a is not None and not np.array_equal(a, b):
                return False
        return True

    def to_json_dict(self) -> dict:
        """The JSON graph format. A 0-node graph with features of nonzero
        width raises GraphValidationError: its ``"features": []`` would read
        back with width 0."""
        if (self.num_nodes == 0 and self.features is not None
                and self.features.shape[1]):
            raise GraphValidationError(
                f"a 0-node graph cannot carry {self.features.shape[1]} "
                f"feature columns in JSON")
        d: dict = {
            "num_nodes": self.num_nodes,
            "edges": self.edge_array().tolist(),
        }
        if self.features is not None:
            d["features"] = self.features.tolist()
        if self.node_labels is not None:
            d["labels"] = self.node_labels.tolist()
        return d


@dataclass(frozen=True)
class NodePermutation:
    """Bijective relabeling sigma: old index -> new index."""

    forward: np.ndarray

    def __post_init__(self):
        fwd = np.asarray(self.forward, dtype=np.int64)
        object.__setattr__(self, "forward", fwd)
        n = len(fwd)
        if not np.array_equal(np.sort(fwd), np.arange(n)):
            raise GraphValidationError("permutation is not a bijection")

    def inverse(self) -> "NodePermutation":
        inv = np.empty_like(self.forward)
        inv[self.forward] = np.arange(len(self.forward))
        return NodePermutation(inv)

    @staticmethod
    def identity(n: int) -> "NodePermutation":
        return NodePermutation(np.arange(n))

    @staticmethod
    def random(n: int, rng: np.random.Generator) -> "NodePermutation":
        return NodePermutation(rng.permutation(n))


# Node counts from MAX_NODES up are malformed input: the binary tensor header
# stores them in 32 bits, and from 2**60 up numpy cannot size an index array.
MAX_NODES = 2**32

# All-pairs work allocates arrays with one entry per node pair, and a dense
# Girvan-Newman pass also one per (source, edge) pair. Larger inputs are
# refused before anything is allocated, so that the largest accepted one
# stays under about 4 GiB. Tracemalloc peaks: a dense Brandes pass up to
# 60 B per pair (on a ring; 2.2 GiB at the limit), refinement 16 B per pair
# of each graph (1.2 GiB for two graphs) and ``hdse`` 5.6 B per pair at
# K = 2.
MAX_PAIRS = 40_000_000

# Girvan-Newman on n nodes and m edges runs up to m + 1 dense Brandes
# passes. Each does about n^3 multiply-adds per hop level in matrix
# products, plus elementwise work on n x m edge gathers that costs as
# much as some 40 multiply-adds per (source, edge) pair. Its time fits
# n * m * (n^2 + 40 m) units, about 2e-10 s each on random graphs of 100
# to 534 nodes, within 15% from m = 2n to m = 25n (2-vCPU VM). Past
# MAX_GN_WORK units it is refused before anything is allocated; at the
# limit a run takes about a minute.
MAX_GN_WORK = 300_000_000_000


def check_pairs(what: str, pairs: int) -> None:
    """Raise MemoryError naming ``MAX_PAIRS`` if ``pairs`` exceeds it."""
    if pairs > MAX_PAIRS:
        raise MemoryError(f"{what} needs {pairs} pairs, more than the limit "
                          f"of {MAX_PAIRS} (MAX_PAIRS)")


def check_gn_work(n: int, m: int) -> None:
    """Raise MemoryError naming ``MAX_GN_WORK`` if Girvan-Newman's modeled
    work on n nodes and m edges, n * m * (n^2 + 40 m), exceeds it."""
    work = n * m * (n * n + 40 * m)
    if work > MAX_GN_WORK:
        raise MemoryError(f"girvan_newman needs {work} units of work on "
                          f"{n} nodes and {m} edges, more than the limit of "
                          f"{MAX_GN_WORK} (MAX_GN_WORK)")


def make_graph(num_nodes: int, edges, features=None, labels=None) -> Graph:
    """Build and validate a Graph from an edge list (any iterable of pairs).

    Duplicate and reversed edges are collapsed; self-loops are rejected.
    """
    if num_nodes >= MAX_NODES:
        raise GraphValidationError(
            f"{num_nodes} nodes: the limit is {MAX_NODES - 1}")
    if not isinstance(edges, np.ndarray):
        edges = list(edges)
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if len(edges) and (edges.min() < 0 or edges.max() >= num_nodes):
        raise GraphValidationError(
            f"edge endpoint out of range [0, {num_nodes})")
    if len(edges) and np.any(edges[:, 0] == edges[:, 1]):
        raise GraphValidationError("self-loops are not allowed")
    # an edge (u, v) is the key u * n + v, below n**2 <= 2**64 for n < MAX_NODES
    lo, hi = np.sort(edges, axis=1).astype(np.uint64).T
    keys = np.unique(lo * num_nodes + hi)
    lo, hi = np.divmod(keys, num_nodes)
    src, dst = np.divmod(np.sort(np.concatenate([keys, hi * num_nodes + lo])),
                         num_nodes)
    counts = np.bincount(src.astype(np.int64), minlength=num_nodes)
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    indices = dst.astype(np.int64)

    feats = None
    if features is not None:
        feats = np.asarray(features, dtype=np.float64)
        if feats.ndim != 2 or feats.shape[0] != num_nodes:
            raise GraphValidationError(
                f"feature matrix has {feats.shape[0] if feats.ndim == 2 else '?'} "
                f"rows, expected {num_nodes}")
    labs = None
    if labels is not None:
        labs = np.asarray(labels, dtype=np.int64)
        if labs.shape != (num_nodes,):
            raise GraphValidationError("label vector length mismatch")
    return Graph(num_nodes, indptr, indices, feats, labs)


def validate(g: Graph) -> None:
    """Check all structural invariants; raise GraphValidationError on breach."""
    if g.num_nodes < 0:
        raise GraphValidationError("negative node count")
    if len(g.indptr) != g.num_nodes + 1 or g.indptr[0] != 0:
        raise GraphValidationError("malformed CSR offsets")
    if np.any(np.diff(g.indptr) < 0) or g.indptr[-1] != len(g.indices):
        raise GraphValidationError("CSR offsets not monotone/complete")
    us = np.repeat(np.arange(g.num_nodes), np.diff(g.indptr))
    vs = g.indices
    if len(vs) and (vs.min() < 0 or vs.max() >= g.num_nodes):
        raise GraphValidationError("neighbor index out of range")
    if np.any(np.diff(vs)[us[1:] == us[:-1]] <= 0):
        raise GraphValidationError("neighbor list not strictly ascending")
    if np.any(us == vs):
        raise GraphValidationError("self-loop detected")
    # (u, v) pairs are lexsorted now; symmetric iff the (v, u) pairs sort equal
    rev = np.lexsort((us, vs))
    if not (np.array_equal(vs[rev], us) and np.array_equal(us[rev], vs)):
        raise GraphValidationError("adjacency not symmetric")
    if g.features is not None and g.features.shape[0] != g.num_nodes:
        raise GraphValidationError("feature row count mismatch")
    if g.node_labels is not None and g.node_labels.shape != (g.num_nodes,):
        raise GraphValidationError("label vector length mismatch")


def load_edge_list(data) -> Graph:
    """Parse the plain-text edge list format.

    Lines: "# comment", optional "n <count>" header, "u v" pairs.
    Accepts UTF-8 bytes or str.
    """
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as e:
            raise GraphParseError(f"not UTF-8 text: {e}") from None
    declared_n = None
    edges = []
    for lineno, raw in enumerate(data.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "n":
            if len(parts) != 2:
                raise GraphParseError(f"line {lineno}: malformed header {line!r}")
            try:
                declared_n = int(parts[1])
            except ValueError:
                raise GraphParseError(f"line {lineno}: bad node count {parts[1]!r}")
            continue
        if len(parts) != 2:
            raise GraphParseError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError(f"line {lineno}: non-integer endpoint in {line!r}")
        if u < 0 or v < 0:
            raise GraphParseError(f"line {lineno}: negative node id")
        if u == v:
            raise GraphValidationError(f"line {lineno}: self-loop {u}")
        edges.append((u, v))
    n = max((max(u, v) for u, v in edges), default=-1) + 1
    if declared_n is not None:
        if declared_n < n:
            raise GraphValidationError(
                f"header declares {declared_n} nodes but edges reference {n}")
        n = declared_n
    return make_graph(n, edges)


def write_edge_list(g: Graph) -> str:
    lines = [f"n {g.num_nodes}"]
    lines.extend(f"{u} {v}" for u, v in g.edge_array())
    return "\n".join(lines) + "\n"


def parse_json(data):
    """Decode a JSON document from str or UTF-8 bytes.

    Invalid UTF-8, invalid JSON, integers too long to convert and nesting too
    deep to decode all raise GraphParseError.
    """
    try:
        return json.loads(data.decode("utf-8") if isinstance(data, bytes)
                          else data)
    except (ValueError, RecursionError) as e:
        raise GraphParseError(f"invalid JSON: {e}") from None


def load_json_graph(data) -> Graph:
    """Parse the JSON graph format (num_nodes, edges, optional features/labels)."""
    return graph_from_json_dict(parse_json(data))


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _json_array(value, kinds: str) -> np.ndarray | None:
    """A JSON list as a rectangular ndarray whose dtype kind is in ``kinds``.

    Returns None for anything else: not a list, ragged or too deeply nested
    rows, elements numpy does not read as one of ``kinds`` (strings, nulls,
    integers too large for 64 bits), or any boolean, which numpy would read
    as 0 or 1 next to numbers. Empty lists pass with any shape; the caller
    checks the shape.
    """
    if not isinstance(value, list):
        return None
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged rows, or more than 64 dimensions
        return None
    if arr.size == 0:
        return arr
    if arr.dtype.kind not in kinds:
        return None
    flat = value  # a numeric array is exactly arr.ndim lists deep
    for _ in range(arr.ndim - 1):
        flat = itertools.chain.from_iterable(flat)
    return None if bool in map(type, flat) else arr


def graph_from_json_dict(obj) -> Graph:
    """Build a Graph from a decoded JSON object in the ``to_json_dict`` format.

    ``num_nodes`` must be a non-negative integer, ``edges`` a list of integer
    pairs, the optional ``features`` a list of rows of equally many finite
    numbers and the optional ``labels`` a list of integers, with no
    booleans anywhere; anything else raises GraphParseError. A feature row
    or label count other than ``num_nodes`` raises GraphValidationError.
    """
    if not isinstance(obj, dict) or "num_nodes" not in obj or "edges" not in obj:
        raise GraphParseError("JSON graph needs 'num_nodes' and 'edges'")
    n = obj["num_nodes"]
    if not _is_int(n) or n < 0:
        raise GraphParseError(
            f"'num_nodes' must be a non-negative integer, got {n!r}")
    edges = _json_array(obj["edges"], "iu")
    if edges is None or (len(edges) and edges.shape[1:] != (2,)):
        raise GraphParseError("'edges' must be a list of [u, v] integer pairs")
    feats = obj.get("features")
    if feats is not None:
        feats = _json_array(feats, "iuf")
        if feats is not None and feats.shape == (0,):
            feats = feats.reshape(0, 0)  # no rows at all
        if feats is None or feats.ndim != 2 or not np.isfinite(feats).all():
            raise GraphParseError("'features' must be a list of rows of "
                                  "equally many finite numbers")
    labels = obj.get("labels")
    if labels is not None:
        labels = _json_array(labels, "iu")
        if labels is None or labels.ndim != 1:
            raise GraphParseError("'labels' must be a list of integers")
    # make_graph checks that there is one feature row and one label per node
    return make_graph(n, edges, features=feats, labels=labels)


def permute(g: Graph, sigma: NodePermutation) -> Graph:
    """Relabel nodes: output node sigma(i) gets the neighbors/features of i."""
    if len(sigma.forward) != g.num_nodes:
        raise GraphValidationError("permutation size mismatch")
    fwd = sigma.forward
    edges = g.edge_array()
    new_edges = fwd[edges] if len(edges) else edges
    feats = None
    if g.features is not None:
        feats = np.empty_like(g.features)
        feats[fwd] = g.features
    labs = None
    if g.node_labels is not None:
        labs = np.empty_like(g.node_labels)
        labs[fwd] = g.node_labels
    return make_graph(g.num_nodes, new_edges, features=feats, labels=labs)
