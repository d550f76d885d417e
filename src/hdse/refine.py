"""Distance-based color refinement (isomorphism testing) and named graphs.

Each iteration recolors a node by the multiset of (distance-to-u,
color-of-u) pairs over all nodes u. The distance can be the plain
shortest-path distance or the full per-pair hierarchy distance vector.
Each pair's distance key is folded once into one pair id that keeps the
keys' order, by ``distance.fold_rows``; the ids need not be dense, since
only their order reaches the colors. They are ranked densely, by
``distance.rank_ids``, only when sparse ids would make the refinement
steps' keys int64.

One loop refines one graph or a pair in lockstep. Colors are dense ids,
renumbered every iteration jointly over the graphs refined together: within
one iteration, equal ids mean equal colors across a pair, so histograms are
directly comparable; ids of different iterations are unrelated. Ids come
from sorting and comparing rows, never from hashing, so two different
colors can never merge: one stable sort of the rows' bytes, over int32 keys
when they fit. Every step refines the partition before it, so the loop
stops when no graph gains a color, within max(1, n1, n2) steps.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .coarsen import build_hierarchy
from .distance import check_clip, fold_rows, hdse, rank_ids, spd_all_pairs
from .graph import Graph, GraphValidationError, make_graph


@dataclass(frozen=True)
class SpdEncoding:
    """Plain shortest-path distance, one key per pair."""


@dataclass(frozen=True)
class HdseEncoding:
    levels: int = 1
    algo: str = "newman"
    clip: int = 30
    seed: int = 0

    def __post_init__(self):
        check_clip(self.clip)  # before any graph is coarsened


Encoding = SpdEncoding | HdseEncoding


def _distance_keys(g: Graph, enc: Encoding) -> np.ndarray:
    """Per-pair distance keys as an (n, n, L) int array.

    SPD gives L = 1; HDSE gives L = levels + 1, one hop distance per level.
    """
    if isinstance(enc, SpdEncoding):
        return spd_all_pairs(g)[:, :, None]
    h = build_hierarchy(g, enc.algo, enc.levels, seed=enc.seed)
    return hdse(h, clip=enc.clip).entries


@dataclass
class ColorMap:
    """Colors per refinement iteration plus distinct-color counts."""

    colors: list[np.ndarray] = field(default_factory=list)
    history: list[int] = field(default_factory=list)

    @property
    def final(self) -> np.ndarray:
        return self.colors[-1]

    def append(self, colors: np.ndarray) -> None:
        self.colors.append(colors)
        self.history.append(len(np.unique(colors)))

    def histogram(self) -> Counter:
        return Counter(self.final.tolist())


def _dense_rows(blocks: list[np.ndarray]) -> list[np.ndarray]:
    """Dense ids of the rows of 2-D arrays, jointly: equal rows share an id.

    Rows of different widths never share an id: each row is zero-padded to
    the widest block and carries its width. Ids rank rows in ``np.lexsort``
    order over (width, first, ..., last column): padded rows, reversed and
    width last, are big-endian integers sorted as byte strings, whose order
    is numeric for non-negative integers; equal neighbours share an id.
    Float rows first become value ranks (-0.0 == 0.0, NaN == NaN).
    """
    width = max(b.shape[1] for b in blocks)
    rows = np.zeros((sum(len(b) for b in blocks), width + 1),
                    dtype=np.result_type(*blocks).newbyteorder(">"))
    start = 0
    for b in blocks:
        rows[start:start + len(b), width - b.shape[1]:width] = b[:, ::-1]
        rows[start:start + len(b), width] = b.shape[1]
        start += len(b)
    if rows.dtype.kind == "f":
        ranks = np.unique(rows, return_inverse=True)[1]
        rows = ranks.reshape(rows.shape).astype(">i8")
    items = rows.view(np.dtype((np.void, rows.strides[0]))).ravel()
    order = np.argsort(items, kind="stable")
    ordered = items[order]
    first = np.ones(len(items), dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    ids = np.empty(len(items), dtype=np.int64)
    ids[order] = np.cumsum(first) - 1
    return np.split(ids, np.cumsum([len(b) for b in blocks])[:-1])


def _pair_ids(keys: list[np.ndarray]) -> list[np.ndarray]:
    """(n, n) id per node pair, jointly: equal distance keys share an id.

    The ids are ``fold_rows``'s, which keep the keys' lexicographic order
    but need not be dense: int32 while the keys' column spans multiply to
    less than 2**31. SPD's one column folds to d, or to d + 1 when some
    pair is unreachable.
    """
    ids, _ = fold_rows([k.reshape(-1, k.shape[-1]) for k in keys])
    return [i.reshape(len(k), len(k)) for i, k in zip(ids, keys)]


def _initial_colors(graphs: list[Graph]) -> list[np.ndarray]:
    """Dense ids of the feature rows; a featureless graph has empty rows."""
    return _dense_rows([g.features if g.features is not None
                        else np.empty((g.num_nodes, 0)) for g in graphs])


def _refine_step(pairs: list[np.ndarray], colors: list[np.ndarray],
                 top: int) -> list[np.ndarray]:
    """Recolor v by its multiset of (pair id of (v, u), color of u).

    ``pair * base + color`` with base above every color is one exact key
    per (pair, color), int32 when pair ids up to ``top`` allow it and int64
    otherwise; a node's multiset is its row of those, sorted.
    """
    base = 1 + max(int(c.max(initial=-1)) for c in colors)
    dtype = np.int32 if (top + 1) * base < 2 ** 31 else np.int64
    keys = [p.astype(dtype) for p in pairs]
    for k, c in zip(keys, colors):
        k *= base
        k += c.astype(dtype)
        k.sort(axis=1)
    return _dense_rows(keys)


def _refine(graphs: list[Graph], enc: Encoding) -> list[ColorMap]:
    """Refine graphs in lockstep until no graph gains a color.

    Each step refines the one before: a node's multiset holds its own
    (diagonal pair id, color) entry, and only v = u has the diagonal id. So
    a partition is stable exactly when its color count stops growing, and
    it stays stable, the next step depending on the partition alone. A
    count can grow at most n - 1 times, so the loop ends within
    max(1, n1, n2) steps.
    """
    pairs = _pair_ids([_distance_keys(g, enc) for g in graphs])
    top = max(int(p.max(initial=0)) for p in pairs)
    if (top + 1) * sum(len(p) for p in pairs) >= 2 ** 31:
        # step keys are pair id * colour count + colour, with at most
        # n1 + n2 colours: past int32, rank the sparse ids densely first
        top = rank_ids(pairs, top + 1) - 1
    colors = _initial_colors(graphs)
    cms = [ColorMap() for _ in graphs]
    for cm, c in zip(cms, colors):
        cm.append(c)
    while True:
        colors = _refine_step(pairs, colors, top)
        for cm, c in zip(cms, colors):
            cm.append(c)
        if all(cm.history[-1] == cm.history[-2] for cm in cms):
            return cms


def gd_wl_refine(g: Graph, enc: Encoding) -> ColorMap:
    """Refine node colors until the partition stabilizes."""
    return _refine([g], enc)[0]


def refine_pair(g1: Graph, g2: Graph,
                enc: Encoding) -> tuple[ColorMap, ColorMap]:
    """Refine two graphs in lockstep; colors are comparable across the pair."""
    cm1, cm2 = _refine([g1, g2], enc)
    return cm1, cm2


def distinguishes(g1: Graph, g2: Graph, enc: Encoding) -> bool:
    """True iff refinement ends with different color histograms."""
    if g1.num_nodes != g2.num_nodes:
        return True
    cm1, cm2 = refine_pair(g1, g2, enc)
    return cm1.histogram() != cm2.histogram()


# ---------------------------------------------------------------------------
# Named graphs

def generalized_petersen(n: int, k: int) -> Graph:
    """GP(n, k): outer n-cycle, inner n-cycle with step k, matching spokes."""
    edges = []
    for i in range(n):
        edges.append((i, (i + 1) % n))        # outer cycle
        edges.append((i, n + i))              # spoke
        edges.append((n + i, n + (i + k) % n))  # inner step-k cycle
    return make_graph(2 * n, edges)


def dodecahedron_graph() -> Graph:
    """Skeleton of the dodecahedron: 3-regular, 20 nodes, girth 5."""
    return generalized_petersen(10, 2)


def desargues_graph() -> Graph:
    """Desargues graph GP(10, 3): 3-regular bipartite, 20 nodes, girth 6."""
    return generalized_petersen(10, 3)


# Each named generator lists or draws its candidate edges, one per node pair
# it may join, before make_graph sees any. Past this many candidates the
# peak memory of cycle, barbell and community_pair at p = q = 1, measured
# with tracemalloc, passes about 1 GiB, so larger requests are refused first.
MAX_CANDIDATE_EDGES = 8_000_000


def _check_candidates(kind: str, count: int) -> None:
    if count > MAX_CANDIDATE_EDGES:
        raise GraphValidationError(
            f"{kind} needs at most {MAX_CANDIDATE_EDGES} candidate edges, "
            f"got {count}")


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphValidationError("cycle needs n >= 3")
    _check_candidates("cycle", n)
    nodes = np.arange(n)
    return make_graph(n, np.column_stack([nodes, (nodes + 1) % n]))


def barbell_graph(k: int) -> Graph:
    """Two k-cliques joined by a single bridge edge."""
    if k < 2:
        raise GraphValidationError("barbell needs k >= 2")
    _check_candidates("barbell", k * (k - 1) + 1)
    clique = np.column_stack(np.triu_indices(k, 1))
    return make_graph(2 * k, np.concatenate([clique, clique + k, [[k - 1, k]]]))


def community_pair_graph(n: int, p: float, q: float, seed: int) -> Graph:
    """Two n-node Erdos-Renyi blocks: intra-probability p, inter-probability q.

    Node labels record the block. A single deterministic inter-block edge is
    added when the sample produces none, so the graph stays connected-ish.
    """
    if n < 1 or seed < 0:
        raise GraphValidationError("community_pair needs n >= 1 and seed >= 0")
    if not (0 <= p <= 1 and 0 <= q <= 1):
        raise GraphValidationError("community_pair needs p and q in [0, 1]")
    _check_candidates("community_pair", n * (n - 1) + n * n)
    rng = np.random.default_rng(seed)
    # one uniform draw per candidate edge, in row-major order
    iu, ju = np.triu_indices(n, 1)
    edges = []
    for base in (0, n):
        hit = rng.random(len(iu)) < p
        edges.append(np.column_stack([iu[hit], ju[hit]]) + base)
    i, j = np.nonzero(rng.random((n, n)) < q)
    edges.append(np.column_stack([i, j + n]) if len(i) else [[0, n]])
    labels = np.repeat([0, 1], n)
    return make_graph(2 * n, np.concatenate(edges), labels=labels)


_NAME_RE = re.compile(r"^(\w+)(?:\(([^)]*)\))?$")


_NAMED_GRAPHS = {
    "dodecahedron": (dodecahedron_graph, ()),
    "desargues": (desargues_graph, ()),
    "cycle": (cycle_graph, (int,)),
    "barbell": (barbell_graph, (int,)),
    "community_pair": (community_pair_graph, (int, float, float, int)),
}


def make_named_graph(name: str) -> Graph:
    """Build a graph from a generator-name string.

    Accepted: "dodecahedron", "desargues", "cycle(n)", "barbell(k)",
    "community_pair(n,p,q,seed)". A wrong argument count or an argument of
    the wrong type raises GraphValidationError.
    """
    m = _NAME_RE.match(name.strip())
    if not m:
        raise GraphValidationError(f"cannot parse graph name {name!r}")
    kind, argstr = m.group(1), m.group(2)
    if kind not in _NAMED_GRAPHS:
        raise GraphValidationError(f"unknown named graph {kind!r}")
    build, types = _NAMED_GRAPHS[kind]
    args = [a.strip() for a in argstr.split(",")] if argstr else []
    if len(args) != len(types):
        raise GraphValidationError(f"{kind} takes {len(types)} argument(s), "
                                   f"got {len(args)}")
    try:
        values = [t(a) for t, a in zip(types, args)]
    except ValueError:
        raise GraphValidationError(
            f"bad arguments for {kind}: {argstr!r}") from None
    return build(*values)
