"""Seeded input generators for the benchmark workloads.

Every generator draws from a ``numpy.random.Generator`` that the workload
derives from ``--seed``, so one seed fixes every input. Graphs are returned as
(m, 2) edge arrays; the workloads hand them to the library either as
edge-list text or through ``hdse.graph.make_graph``.
"""

from __future__ import annotations

import numpy as np


def nested_partition(n: int, rng: np.random.Generator, n_super: int,
                     sub_size: int, p_sub: float, p_sup: float,
                     p_out: float) -> np.ndarray:
    """Edges (u < v) of a two-level planted partition on ``n`` nodes.

    Nodes fall into ``n_super`` super-blocks, each cut into sub-blocks of
    about ``sub_size`` nodes. Of the node pairs inside a sub-block, a share
    ``p_sub`` are edges; ``p_sup`` of the pairs between sub-blocks of one
    super-block and ``p_out`` of the rest. Exact shares, not independent
    coin flips, keep the edge count, and so the work per graph, the same for
    every seed. With ``p_sub >> p_sup >> p_out`` Louvain finds the sub-blocks
    at level 1 and merges them into super-blocks at level 2, so a K=2
    hierarchy has two non-trivial coarse levels (a flat two-block graph
    collapses to one node at level 2).
    """
    n_sub = max(n_super * 2, round(n / sub_size))
    sub_of = np.repeat(np.arange(n_sub),
                       np.diff(np.linspace(0, n, n_sub + 1).astype(int)))
    sup_of = sub_of * n_super // n_sub
    iu, ju = np.triu_indices(n, 1)
    tier = np.where(sub_of[iu] == sub_of[ju], 0,
                    np.where(sup_of[iu] == sup_of[ju], 1, 2))
    chosen = []
    for t, p in enumerate((p_sub, p_sup, p_out)):
        pairs = np.flatnonzero(tier == t)
        chosen.append(rng.choice(pairs, size=round(p * len(pairs)),
                                 replace=False))
    keep = np.sort(np.concatenate(chosen))
    return np.column_stack([iu[keep], ju[keep]])


def infer_graph(n: int, rng: np.random.Generator) -> np.ndarray:
    """Nested partition with three super-blocks of 25-node sub-blocks."""
    return nested_partition(n, rng, n_super=3,
                            sub_size=25, p_sub=0.3, p_sup=0.02, p_out=0.0006)


def small_graph(n: int, rng: np.random.Generator) -> np.ndarray:
    """40-70-node nested partition, small enough for Girvan-Newman."""
    return nested_partition(n, rng, n_super=2, sub_size=10, p_sub=0.35,
                            p_sup=0.05, p_out=0.01)


def edge_list_text(n: int, edges: np.ndarray) -> str:
    """The library's plain-text edge-list format with an ``n`` header."""
    lines = [f"# nested planted partition, {len(edges)} edges", f"n {n}"]
    lines.extend(f"{u} {v}" for u, v in edges.tolist())
    return "\n".join(lines) + "\n"


def permuted(n: int, edges: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """An isomorphic twin: the same edges under a random relabeling."""
    perm = rng.permutation(n)
    return perm[edges]


def rewired(n: int, edges: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Move one edge: drop a random edge and add a random non-edge."""
    present = {(int(u), int(v)) for u, v in edges}
    keep = np.delete(edges, rng.integers(len(edges)), axis=0)
    while True:
        u, v = sorted(int(x) for x in rng.choice(n, size=2, replace=False))
        if (u, v) not in present:
            return np.vstack([keep, [[u, v]]])


def generalized_petersen(n: int, k: int) -> np.ndarray:
    """Edges of GP(n, k): outer n-cycle, spokes, inner step-k cycle."""
    i = np.arange(n)
    return np.concatenate([
        np.column_stack([i, (i + 1) % n]),
        np.column_stack([i, n + i]),
        np.column_stack([n + i, n + (i + k) % n]),
    ])


def petersen_ks(n: int, rng: np.random.Generator) -> tuple[int, int]:
    """Two distinct step sizes for a pair GP(n, k1), GP(n, k2)."""
    k1, k2 = sorted(rng.choice(np.arange(1, (n - 1) // 2 + 1), size=2,
                               replace=False).tolist())
    return k1, k2
