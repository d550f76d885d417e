"""Graph coarsening: partitions and multi-level hierarchies.

A coarsening map is a ``Partition``, an ``assign`` array from nodes to
clusters. The paper's projection matrix P is its column-normalized one-hot
view and is never built (see ``Hierarchy.projected_features``).

Three partitioners are provided: greedy modularity (Louvain), edge-betweenness
splitting (Girvan-Newman) and repeated maximal matching (METIS-style). All are
deterministic for a fixed seed and accept any graph, the empty one included.
Louvain and matching share one round loop on weighted edge arrays, ``_rounds``;
it and ``build_coarse_graph`` contract by ``assign`` through ``_quotient``.
A hierarchy is its input graph and its maps; each coarse level is derived as
the quotient of the level below and nothing else: it has no features and no
labels, and features reach it only through ``Hierarchy.projected_features``.
Girvan-Newman reads its distances from the forward sweep of its own dense
Brandes pass, one per edge removal on the component that lost the edge. It
keeps one component label per node, not the distances, and relabels a
component only when a removal splits it. The pass counts hops by adding up
a 0/1 float mask of the pairs not reached yet, accumulates (1 + delta) /
sigma level by level, and masks every level by multiplying with 0/1
arrays, never by boolean-indexed writes. With no target it stops once a
sum of per-component modularity bounds shows that no later partition, each
a refinement of the current components, can win.
Inputs past ``MAX_PAIRS`` or ``MAX_GN_WORK`` are refused before allocating.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .graph import (Graph, GraphParseError, GraphValidationError,
                    NodePermutation, _is_int, _json_array, check_gn_work,
                    check_pairs, graph_from_json_dict, make_graph, parse_json,
                    permute)


@dataclass(frozen=True)
class Partition:
    """Surjective assignment of nodes to clusters 0..num_clusters-1."""

    assign: np.ndarray
    num_clusters: int

    def __post_init__(self):
        a = np.asarray(self.assign, dtype=np.int64)
        object.__setattr__(self, "assign", a)
        if len(a) and (a.min() < 0 or a.max() >= self.num_clusters):
            raise GraphValidationError("cluster index out of range")
        # a negative count, or more clusters than nodes, leaves one unhit;
        # bincount would refuse the first and over-allocate for the second
        if not (0 <= self.num_clusters <= len(a)
                and np.bincount(a, minlength=self.num_clusters).all()):
            raise GraphValidationError("partition not surjective")

    @staticmethod
    def from_assignment(assign) -> "Partition":
        """Relabel an arbitrary labeling to contiguous ids by first appearance."""
        assign = np.asarray(assign, dtype=np.int64)
        _, first, inverse = np.unique(assign, return_index=True,
                                      return_inverse=True)
        # rank[u] is the position of unique value u in first-appearance order
        rank = np.empty(len(first), dtype=np.int64)
        rank[np.argsort(first)] = np.arange(len(first))
        return Partition(rank[inverse], len(first))


def modularity(g: Graph, p: Partition) -> float:
    """Newman modularity of a partition; 0.0 for an edgeless graph."""
    m = g.num_edges
    if m == 0:
        return 0.0
    deg = g.degrees().astype(np.float64)
    edges = g.edge_array()
    intra = np.sum(p.assign[edges[:, 0]] == p.assign[edges[:, 1]])
    deg_sum = np.bincount(p.assign, weights=deg, minlength=p.num_clusters)
    return intra / m - float(np.sum((deg_sum / (2.0 * m)) ** 2))


# ---------------------------------------------------------------------------
# Weighted quotient

def _quotient(edges: np.ndarray, weights: np.ndarray, assign: np.ndarray,
              c: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Contract weighted u < v ``edges`` by ``assign`` onto clusters 0..c-1.

    Returns the coarse u < v edges in lexicographic order, the summed weight
    of each, and the summed weight of the edges inside each cluster.
    """
    ce = assign[edges]
    inside = ce[:, 0] == ce[:, 1]
    intra = np.bincount(ce[inside, 0], weights[inside], minlength=c)
    ce = np.sort(ce[~inside], axis=1)
    keys, inv = np.unique(ce[:, 0] * c + ce[:, 1], return_inverse=True)
    return (np.column_stack([keys // c, keys % c]),
            np.bincount(inv, weights[~inside], minlength=len(keys)), intra)


def _rounds(g: Graph, step) -> Partition:
    """Label and contract ``g`` until a round merges nothing; return the map.

    ``step(n, edges, weights, self_w)`` labels the nodes of the current
    n-node quotient (``g`` at first) from its weighted, lexsorted u < v
    ``edges`` and twice the edge weight inside each node.
    """
    n, edges = g.num_nodes, g.edge_array()
    weights, self_w = np.ones(len(edges)), np.zeros(n)
    assign = np.arange(n)  # node of g -> node of the current quotient
    while True:
        part = Partition.from_assignment(step(n, edges, weights, self_w))
        if part.num_clusters == n:
            return Partition.from_assignment(assign)
        assign = part.assign[assign]
        n = part.num_clusters
        edges, weights, intra = _quotient(edges, weights, part.assign, n)
        self_w = np.bincount(part.assign, self_w, minlength=n) + 2.0 * intra


# ---------------------------------------------------------------------------
# Louvain

def _louvain_one_level(n: int, edges: np.ndarray, weights: np.ndarray,
                       self_w: np.ndarray, m2: float,
                       rng: np.random.Generator) -> np.ndarray:
    """One node-move phase on a weighted graph; returns community per node.

    ``links[v]``, the weight from v to each neighbouring community, is built
    once and updated as nodes move: when v leaves cv for c, each neighbour's
    cv entry loses v's edge weight (and goes at 0) and its c entry gains it.
    This is exact: ``_rounds`` passes sums of unit weights, so every sum is
    an integer-valued float, the same in any order.
    """
    adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for (u, v), w in zip(edges.tolist(), weights.tolist()):
        adj[u].append((v, w))
        adj[v].append((u, w))
    links = [dict(a) for a in adj]
    deg = [sum(a.values()) + s for a, s in zip(links, self_w.tolist())]
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
            links_v = links[v]  # weight from v to each neighboring community
            comm_tot[cv] -= k_v
            base = links_v.get(cv, 0.0) - comm_tot[cv] * k_v / m2
            # ascending scan keeps the smallest community on gain ties
            best_c, best_gain = cv, 0.0
            for c in sorted(links_v):
                if c == cv:
                    continue
                gain = links_v[c] - comm_tot[c] * k_v / m2 - base
                if gain > best_gain + 1e-12:
                    best_c, best_gain = c, gain
            comm_tot[best_c] += k_v
            if best_c != cv:
                comm[v] = best_c
                improved = True
                for u, w in adj[v]:
                    links_u = links[u]
                    left = links_u.pop(cv) - w
                    if left:
                        links_u[cv] = left
                    links_u[best_c] = links_u.get(best_c, 0.0) + w
    return np.array(comm)


def louvain(g: Graph, seed: int = 0) -> Partition:
    """Greedy modularity maximization with node moves and aggregation.

    Deterministic for a fixed seed: nodes are scanned in a seeded-shuffled
    order and gain ties go to the smallest community index.
    """
    if seed < 0:
        raise GraphValidationError(f"seed must be >= 0, got {seed}")
    if g.num_edges == 0:  # every gain divides by 2m
        return Partition(np.arange(g.num_nodes), g.num_nodes)
    m2, rng = 2.0 * g.num_edges, np.random.default_rng(seed)
    return _rounds(g, lambda *quotient: _louvain_one_level(*quotient, m2, rng))


# ---------------------------------------------------------------------------
# Girvan-Newman

def _brandes(a: np.ndarray, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hop distances ``d`` (int32, -1 if unreachable) of the dense 0/1
    adjacency ``a`` and the exact betweenness of its u < v ``edges``.

    Brandes for all sources at once. Row s of ``sigma`` counts the shortest
    paths from s; row s of ``w`` is (1 + delta) / sigma, the dependency of s
    on a node per path through it. Edge (u, v), v one level below u,
    carries sigma[s, u] * w[s, v] of the pairs from s; each pair counts from
    both of its ends, hence the halving.

    On the few-dozen-node components Girvan-Newman solves, a pass costs
    numpy calls, not arithmetic, so every mask is a float 0/1 array that
    multiplies, never a boolean-indexed write or ``where=``. The forward
    sweep multiplies each level's path counts by ``unseen`` (1 at the pairs
    not reached yet) and counts hops by adding ``unseen`` up; it stops once
    a level reaches nothing new or every pair is reached, and takes the
    pairs still unseen to -1. The backward sweep keeps ``w`` itself, not
    delta: it starts as 1/sigma on the deepest level and 0 elsewhere, and
    each level k - 1 gets (1 + (w @ a) * sigma) / sigma from level k, with 1
    in place of sigma at unreached pairs so that every quotient is finite.
    Multiplying and adding that level's 0/1 mask keeps the rest of the
    block at 0, so ``w += r`` writes one level. ``w @ a`` also holds the
    deeper levels, but no node of level k - 1 neighbours them: each output
    sums the same nonzero products in the same order, plus exact zeros.
    Level 0 is never swept, as the edge gather never reads it. A finite
    value times 0 or 1 is 0 or itself, so the results are bit for bit
    those of boolean masking.

    Path counts overflow float64 only from about 1,900 nodes with hundreds
    of levels, far past ``MAX_GN_WORK``; there inf * 0 makes the betweenness
    NaN, as inf - inf does under boolean masking.
    """
    n, k = len(a), 0
    level = sigma = np.eye(n)
    unseen, hops = 1.0 - sigma, np.zeros((n, n))
    left = n * n - n  # pairs not reached yet
    while left:
        level = level @ a
        level *= unseen
        new = np.count_nonzero(level)
        if not new:
            break
        left -= new
        k += 1
        hops += unseen
        sigma += level
        np.equal(sigma, 0.0, out=unseen, casting="unsafe")
    del level
    # each unreached pair counted all k levels
    hops -= np.multiply(unseen, k + 1, out=unseen)
    d = hops.astype(np.int32)
    safe = np.maximum(sigma, 1.0, out=unseen)
    # w holds (1 + delta) / sigma at the levels swept so far and 0 elsewhere;
    # the deepest level has delta 0
    w = np.equal(d, k, out=hops, casting="unsafe")
    w /= safe
    r, below = np.empty((n, n)), np.empty((n, n))
    for k in range(k, 1, -1):
        np.equal(d, k - 1, out=below, casting="unsafe")
        np.matmul(w, a, out=r)
        r *= sigma
        r *= below
        r += below
        r /= safe
        w += r
    del unseen, safe, r, below  # freed before the n x m gathers
    u, v = edges.T
    diff = d[:, v] - d[:, u]
    x = sigma[:, u] * w[:, v]
    x *= diff == 1
    y = sigma[:, v] * w[:, u]
    y *= diff == -1
    x += y
    return d, x.sum(axis=0) / 2.0


def _smallest_reached(d: np.ndarray) -> np.ndarray:
    """Each row's smallest column at distance >= 0 in ``d``, the smallest
    node of its component: equal labels mean one component."""
    n = len(d)
    return np.where(d >= 0, np.arange(n), n).min(axis=1, initial=n)


def girvan_newman(g: Graph, target: int | None = None) -> Partition:
    """Split by iterative removal of maximum-betweenness edges.

    ``target`` is the desired cluster count; ``None`` selects the partition of
    maximum modularity along the removal sequence. One edge is removed per
    iteration, ties broken by smallest edge id, and the betweenness is
    recomputed after every removal; removing whole tie groups at once would
    erase every edge of a vertex-transitive graph in one step and never
    produce a nontrivial split. Each node carries the label of the
    smallest node it reaches. Only the component that lost the edge, the
    nodes sharing its ends' label, is re-solved, by one ``_brandes`` pass on
    its block of one dense adjacency; its labels are rewritten and the
    partition rescored only if the edge's ends fall apart. ``target`` must
    lie in 1..n.

    With ``target=None`` the loop stops once no later partition can win.
    Each refines the current components. Say it splits component C, with
    e(C) edges of ``g`` inside, degree sum D_C and squared degrees summing
    to S_C, into p parts: C is connected in the remaining graph, so it cuts
    at least p - 1 of those edges, and the parts' squared degree sums add up
    to at least D_C^2/p (Cauchy-Schwarz) and at least S_C. So C adds at most
    B_C = max over p in 1..|C| of (e(C) - p + 1)/m - max(D_C^2/p, S_C)/4m^2,
    and the loop stops once sum_C B_C is below the best modularity so far.
    The 1e-9 slack in that test keeps float rounding from stopping before a
    partition that would have won. Past ``MAX_PAIRS`` node pairs, or (node,
    edge) pairs on a graph with more edges than nodes, or past
    ``MAX_GN_WORK`` units of modeled work, it raises MemoryError before
    allocating.
    """
    n, m = g.num_nodes, max(g.num_edges, 1)  # an edgeless graph scores 0
    if target is not None and target < 1:
        raise GraphValidationError(f"target must be >= 1, got {target}")
    if target is not None and target > n:
        raise GraphValidationError(f"target {target} exceeds {n} nodes")
    check_pairs("girvan_newman", n * max(n, m))  # n x m edge gathers too
    check_gn_work(n, m)
    edges = g.edge_array()
    deg = g.degrees().astype(np.float64)
    a = np.zeros((n, n))
    a[edges[:, 0], edges[:, 1]] = a[edges[:, 1], edges[:, 0]] = 1.0
    d, bet = _brandes(a, edges)
    lab = _smallest_reached(d)
    del d
    best, best_q = None, -np.inf
    while True:
        part = Partition.from_assignment(lab)
        if target is not None:  # target <= n: n singletons always return
            if part.num_clusters >= target:
                return part
        else:
            c, (cu, cv) = part.num_clusters, part.assign[edges.T]
            e = np.bincount(cu[cu == cv], minlength=c)  # edges inside each C
            dsum = np.bincount(part.assign, deg, c)
            q = e.sum() / m - float(np.sum((dsum / (2.0 * m)) ** 2))
            if q > best_q + 1e-12:
                best, best_q = part, q
            # B_C over p = 1..|C| for every component C, in one flat array
            of = np.repeat(np.arange(c), np.bincount(part.assign, minlength=c))
            first = np.searchsorted(of, np.arange(c))
            p = np.arange(1, n + 1) - first[of]
            sq = np.bincount(part.assign, deg * deg, c)[of]
            b = ((e[of] - p + 1) / m
                 - np.maximum(dsum[of] ** 2 / p, sq) / (4.0 * m * m))
            if c == n or np.maximum.reduceat(b, first).sum() < best_q - 1e-9:
                return best  # no edge left, or no later partition can win
        split = False
        while not split:
            # a removed edge keeps its id at -inf, so no array is copied and
            # the first maximal edge is still the one with the smallest id
            drop = np.argmax(bet >= bet.max() * (1.0 - 1e-9))
            x, y = edges[drop]
            a[x, y] = a[y, x] = 0.0
            bet[drop] = -np.inf
            comp = lab == lab[x]  # the component losing the edge
            idx = np.flatnonzero(comp)
            pos = np.cumsum(comp) - 1  # node -> its row in the block
            mine = (bet != -np.inf) & comp[edges[:, 0]]  # its edges left
            d, bet[mine] = _brandes(a.take(idx, 0).take(idx, 1),
                                    pos[edges[mine]])
            split = d[pos[x], pos[y]] < 0
            if split:  # idx ascends, so the smallest row is the smallest node
                lab[idx] = idx[_smallest_reached(d)]


# ---------------------------------------------------------------------------
# Heavy-edge matching

def heavy_edge_matching(g: Graph, ratio: float) -> Partition:
    """Contract maximal matchings until cluster count <= ratio * num_nodes.

    Matching is greedy in ascending node-id order, pairing each unmatched node
    with its smallest-id unmatched neighbor. On an edgeless graph the result is
    the singleton partition regardless of ratio.
    """
    if not 0.0 < ratio < 1.0:
        raise GraphValidationError(f"ratio must be in (0,1), got {ratio}")
    goal = ratio * g.num_nodes

    def match(n, edges, weights, self_w):
        label = list(range(n))
        if n <= goal:
            return label
        matched = [False] * n
        # edges are lexsorted u < v: when u's run starts, every smaller
        # neighbour of u is matched, so the first free v is u's smallest
        for u, v in edges.tolist():
            if not (matched[u] or matched[v]):
                matched[u] = matched[v] = True
                label[v] = u
        return label

    return _rounds(g, match)


# ---------------------------------------------------------------------------
# Coarse graphs and hierarchies

def build_coarse_graph(g: Graph, p: Partition) -> Graph:
    """Quotient graph: one node per cluster, self-loops dropped.

    The result is structure only, with no features and no labels.
    """
    if len(p.assign) != g.num_nodes:
        raise GraphValidationError("partition size mismatch")
    ce, _, _ = _quotient(g.edge_array(), np.ones(g.num_edges), p.assign,
                         p.num_clusters)
    return make_graph(p.num_clusters, ce)


@dataclass(frozen=True)
class Hierarchy:
    """Coarsening hierarchy: the input graph and one coarsening map per level.

    ``maps[k]`` sends level-k nodes to level-(k+1) clusters. The levels are
    derived, never passed in: ``levels[0]`` is ``graph`` and ``levels[k + 1]``
    is ``build_coarse_graph(levels[k], maps[k])``, structure only, so no
    hierarchy has levels that disagree with its maps. Features reach the
    coarse levels through ``projected_features``, the paper's chain
    X_{k+1} = P^T X_k, which is what the linear attention path consumes.
    """

    graph: Graph
    maps: list[Partition]
    algo: str = ""
    seed: int = 0
    levels: list[Graph] = field(init=False)

    def __post_init__(self):
        levels = [self.graph]
        for part in self.maps:
            levels.append(build_coarse_graph(levels[-1], part))
        object.__setattr__(self, "levels", levels)

    @property
    def max_level(self) -> int:
        return len(self.maps)

    @property
    def coarsening_ratios(self) -> list[float]:
        """Node count of each level over the level below; 1.0 above an empty
        level."""
        return [b.num_nodes / a.num_nodes if a.num_nodes else 1.0
                for a, b in zip(self.levels, self.levels[1:])]

    @property
    def projected_features(self) -> list[np.ndarray] | None:
        """X_0 = graph.features and X_{k+1} = P_k^T X_k, one per level.

        P_k is the one-hot matrix of ``maps[k]`` with each column divided by
        the square root of its cluster size, so P_k^T X_k sums the rows of
        X_k over each cluster, each row divided by that square root first so
        that no sum overflows when its result is finite. None when the input
        graph has no features; recomputed on each access.
        """
        x = self.graph.features
        if x is None:
            return None
        chain = [x]
        for part in self.maps:
            c = part.num_clusters
            root = np.sqrt(np.bincount(part.assign, minlength=c))
            sums = np.zeros((c, x.shape[1]))
            np.add.at(sums, part.assign, chain[-1] / root[part.assign, None])
            chain.append(sums)
        return chain

    def image(self, k: int) -> np.ndarray:
        """Composed map from level-0 nodes to level-k nodes."""
        img = np.arange(self.graph.num_nodes)
        for part in self.maps[:k]:
            img = part.assign[img]
        return img


# One coarsening step per algorithm name: (graph, ratio, seed) -> Partition.
ALGOS = {
    "louvain": lambda g, ratio, seed: louvain(g, seed=seed),
    "newman": lambda g, ratio, seed: girvan_newman(g, target=None),
    "hem": lambda g, ratio, seed: heavy_edge_matching(g, ratio),
}
# The algorithms whose partition depends on the seed; the others ignore it.
SEEDED = {"louvain"}


def build_hierarchy(g: Graph, algo: str, levels: int,
                    ratio: float = 0.5, seed: int = 0) -> Hierarchy:
    """Apply a coarsening algorithm ``levels`` times.

    Once a level collapses to a single node, the remaining levels repeat that
    trivial level so the hierarchy always has ``levels + 1`` graphs. An empty
    graph gives ``levels + 1`` empty levels, each with ratio 1.0.
    """
    if levels < 0:
        raise GraphValidationError("level count must be >= 0")
    if algo not in ALGOS:
        raise GraphValidationError(f"unknown coarsening algorithm {algo!r}")
    # each level is contracted once, here, and appended with its map
    h = Hierarchy(g, [], algo=algo, seed=seed)
    for _ in range(levels):
        part = ALGOS[algo](h.levels[-1], ratio, seed)
        h.maps.append(part)
        h.levels.append(build_coarse_graph(h.levels[-1], part))
    return h


def permute_hierarchy(h: Hierarchy, sigma: NodePermutation) -> Hierarchy:
    """Relabel the base level by sigma, composing sigma into the first map.

    No coarsening is re-run. The coarse levels derived from the relabelled
    base and first map are the same graphs as before.
    """
    maps = list(h.maps)
    if maps:
        inv = sigma.inverse().forward
        maps[0] = Partition(maps[0].assign[inv], maps[0].num_clusters)
    return Hierarchy(permute(h.graph, sigma), maps, algo=h.algo, seed=h.seed)


# ---------------------------------------------------------------------------
# Serialization

def hierarchy_to_json(h: Hierarchy) -> str:
    obj = {
        "graph": h.graph.to_json_dict(),
        "maps": [p.assign.tolist() for p in h.maps],
        "algo": h.algo,
        "seed": h.seed,
    }
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def hierarchy_from_json(data) -> Hierarchy:
    """Parse ``hierarchy_to_json`` output.

    The object must have exactly the keys ``graph``, ``maps``, ``algo`` and
    ``seed``, and each map must list one integer cluster id in [0, n) per
    node of its n-node level; anything else, a file with the coarse
    ``levels`` of the older format included, raises GraphParseError. A map
    whose ids leave a cluster empty raises GraphValidationError. The coarse
    levels are derived from the graph and the maps, never read.
    """
    obj = parse_json(data)
    if not (isinstance(obj, dict)
            and set(obj) == {"graph", "maps", "algo", "seed"}
            and isinstance(obj["maps"], list)
            and isinstance(obj["algo"], str) and _is_int(obj["seed"])):
        raise GraphParseError("hierarchy JSON needs exactly a 'graph' object, "
                              "a 'maps' list, a string 'algo' and an integer "
                              "'seed'")
    g = graph_from_json_dict(obj["graph"])
    maps, n = [], g.num_nodes
    for k, a in enumerate(obj["maps"]):
        a = _json_array(a, "iu")
        if a is None or a.shape != (n,) or not np.all((a >= 0) & (a < n)):
            raise GraphParseError(f"map {k} must list one cluster id in "
                                  f"[0, {n}) per node of level {k}")
        maps.append(Partition(a, int(a.max(initial=-1)) + 1))
        n = maps[-1].num_clusters
    return Hierarchy(g, maps, algo=obj["algo"], seed=obj["seed"])
