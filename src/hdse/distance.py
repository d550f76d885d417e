"""Shortest-path and hierarchy distances, clipped distance tensors.

Distances are unweighted hop counts. All-pairs distances come from one
multi-source breadth-first search that advances every source together: each
node holds a bitset with one bit per source, and one hop ORs the bitsets of
its neighbours over the CSR adjacency. Every hierarchy encoding below is
built from these per-level distances.

Unreachable pairs carry a dedicated sentinel that survives clipping: in the
integer tensor encoding an unreachable pair is stored as ``clip + 1``,
distinct from a pair whose true distance saturates at ``clip``.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

from .coarsen import Hierarchy
from .graph import Graph, GraphValidationError

UNREACHABLE = -1  # sentinel in raw DistanceMatrix values


@dataclass(frozen=True)
class DistanceMatrix:
    """Square hop-count matrix; UNREACHABLE (-1) marks disconnected pairs."""

    values: np.ndarray
    level: int = 0


def spd_all_pairs(g: Graph) -> DistanceMatrix:
    """Exact all-pairs hop distances by a bit-packed multi-source BFS.

    ``reached[v]`` and ``frontier[v]`` are bitsets over sources, packed into
    ``ceil(n / 64)`` uint64 words: bit s of ``frontier[v]`` is set when v lies
    at the current hop distance from s. One hop ORs the frontier rows of each
    node's neighbours (``reduceat`` over CSR segments, restricted to nodes of
    nonzero degree because ``reduceat`` returns the element at an empty
    segment's start instead of an identity); bits not yet reached are the
    nodes at the next distance. The graph is undirected, so the new-bit mask
    of node v and source s is written directly as row s, column v of the
    symmetric result.

    Working memory besides the n x n int32 output: n x n/8-byte bitsets
    (``reached``, ``frontier`` and a few per-hop temporaries), the gathered
    neighbour frontiers (2m x n/8 bytes for m edges) and one n x n bool mask
    per hop.
    """
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
        # bit s of word w is source 64 w + s once the words are little-endian
        new = np.unpackbits(frontier.astype("<u8", copy=False).view(np.uint8),
                            axis=1, count=n, bitorder="little")
        out[new.view(bool)] = d
    return DistanceMatrix(out, level=0)


def ghd(h: Hierarchy, k: int) -> DistanceMatrix:
    """Level-k hierarchy distance between all pairs of base nodes.

    Level 0 is the plain shortest-path distance; level k>0 is the level-k
    shortest-path distance between the nodes' cluster images.
    """
    if not 0 <= k <= h.max_level:
        raise GraphValidationError(f"level {k} out of range [0, {h.max_level}]")
    spd_k = spd_all_pairs(h.levels[k]).values
    img = h.image(k)
    return DistanceMatrix(spd_k[np.ix_(img, img)].astype(np.int32), level=k)


def _encode(values: np.ndarray, clip: int) -> np.ndarray:
    """Clip finite distances at ``clip``; unreachable becomes clip + 1."""
    enc = np.minimum(values, clip)
    enc[values == UNREACHABLE] = clip + 1
    return enc


@dataclass(frozen=True)
class HdseTensor:
    """Stacked clipped hierarchy distances, shape (n, n, max_level + 1).

    ``entries[i, j, k]`` is min(clip, level-k distance), or ``clip + 1`` for
    an unreachable pair. Stored as uint8 (clip <= 254 enforced).
    """

    entries: np.ndarray
    max_level: int
    clip: int

    @property
    def num_nodes(self) -> int:
        return self.entries.shape[0]


def hdse(h: Hierarchy, clip: int = 30) -> HdseTensor:
    if clip < 1 or clip > 254:
        raise GraphValidationError(f"clip must be in [1, 254], got {clip}")
    slices = [_encode(ghd(h, k).values, clip) for k in range(h.max_level + 1)]
    return HdseTensor(np.stack(slices, axis=2).astype(np.uint8),
                      h.max_level, clip)


@dataclass(frozen=True)
class HighLevelHdseTensor:
    """Node-to-cluster distances, shape (n, |V^c|, max_level + 1 - c)."""

    entries: np.ndarray
    base_level: int
    max_level: int
    clip: int


def high_level_hdse(h: Hierarchy, c: int, clip: int = 30) -> HighLevelHdseTensor:
    """Distances from base nodes to level-c clusters at levels c..max_level.

    Slice m holds the level-(c+m) distance between each node's level-(c+m)
    image and the level-(c+m) image of each level-c cluster.
    """
    if not 1 <= c <= h.max_level:
        raise GraphValidationError(f"base level {c} out of range [1, {h.max_level}]")
    if clip < 1 or clip > 254:
        raise GraphValidationError(f"clip must be in [1, 254], got {clip}")
    n_clusters = h.levels[c].num_nodes
    slices = []
    cluster_img = np.arange(n_clusters)  # level-c cluster -> level-(c+m) node
    for m in range(h.max_level + 1 - c):
        level = c + m
        spd_l = spd_all_pairs(h.levels[level]).values
        node_img = h.image(level)
        slices.append(_encode(spd_l[np.ix_(node_img, cluster_img)], clip))
        if level < h.max_level:
            cluster_img = h.maps[level].assign[cluster_img]
    return HighLevelHdseTensor(np.stack(slices, axis=2).astype(np.uint8),
                               c, h.max_level, clip)


# ---------------------------------------------------------------------------
# Tensor file format

_MAGIC = b"HDSE"
_HEADER = struct.Struct("<4sHIIBB")  # magic, version, rows, cols, levels, clip


def write_tensor(entries: np.ndarray, clip: int) -> bytes:
    """Serialize a (rows, cols, levels) uint8 tensor with a 16-byte header.

    The header stores the level count in one byte, so a tensor of more than
    255 levels raises GraphValidationError.
    """
    rows, cols, levels = entries.shape
    if levels > 255:
        raise GraphValidationError(
            f"{levels} levels: the binary tensor format holds at most 255")
    header = _HEADER.pack(_MAGIC, 1, rows, cols, levels, clip)
    return header + np.ascontiguousarray(entries, dtype=np.uint8).tobytes()


def read_tensor(data: bytes) -> tuple[np.ndarray, int]:
    """Inverse of write_tensor; returns (entries, clip)."""
    if len(data) < _HEADER.size:
        raise GraphValidationError("tensor file truncated")
    magic, version, rows, cols, levels, clip = _HEADER.unpack_from(data)
    if magic != _MAGIC:
        raise GraphValidationError("bad tensor magic")
    if version != 1:
        raise GraphValidationError(f"unsupported tensor version {version}")
    payload = np.frombuffer(data, dtype=np.uint8, offset=_HEADER.size)
    if len(payload) != rows * cols * levels:
        raise GraphValidationError("tensor payload size mismatch")
    return payload.reshape(rows, cols, levels).copy(), clip


def tensor_to_json(entries: np.ndarray, clip: int) -> str:
    obj = {"shape": list(entries.shape), "clip": clip,
           "entries": entries.tolist()}
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
