"""Shortest-path and hierarchy distances, clipped distance tensors.

Distances are unweighted hop counts. All-pairs distances come from one
multi-source breadth-first search that advances every source together: each
node holds a bitset with one bit per source, and one hop ORs the bitsets of
its neighbours over the CSR adjacency.

Both encodings return one type, ``HdseTensor``: each level's distances are
solved once, encoded at level size into uint8 codes and gathered onto the
pairs. Level 0 is the shortest-path distance (SPD), so the clipped SPD
encoding is the K = 0 slice of ``hdse``. Raw distances mark unreachable
pairs ``UNREACHABLE``; their code is ``clip + 1``, distinct from a distance
that saturates at ``clip``.

Refinement and the attention bias number the pairs' code tuples through one
fold, ``fold_rows``, and one dense rank, ``rank_ids``.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .coarsen import Hierarchy
from .graph import Graph, GraphValidationError, check_pairs

UNREACHABLE = -1  # raw distance of a disconnected pair


def _unpack(words: np.ndarray, n: int) -> np.ndarray:
    """Rows of uint64 bitsets as an n-column 0/1 uint8 array."""
    # bit s of word w is column 64 w + s once the words are little-endian
    return np.unpackbits(words.astype("<u8", copy=False).view(np.uint8),
                         axis=1, count=n, bitorder="little")


def check_clip(clip: int) -> None:
    """Raise GraphValidationError unless 1 <= clip <= 254 (clip + 1 fits uint8)."""
    if not 1 <= clip <= 254:
        raise GraphValidationError(f"clip must be in [1, 254], got {clip}")


def _component_labels(g: Graph) -> np.ndarray:
    """Each node's smallest node id in its connected component.

    Min-label propagation with pointer jumping, O(n + m) per round: every
    node, and the node its label names, takes the smallest label among the
    node's neighbours; then each label is chased to ``labels[labels]``'s
    fixed point. A label always names a node of the same component and
    never rises, and at a fixed point neighbours share a label, so each
    component ends labelled by its smallest node.
    """
    labels = np.arange(g.num_nodes)
    has_nbrs = np.diff(g.indptr) > 0
    starts = g.indptr[:-1][has_nbrs]
    while True:
        low = np.minimum.reduceat(labels[g.indices], starts)
        new = labels.copy()
        np.minimum.at(new, labels[has_nbrs], low)
        new[has_nbrs] = np.minimum(new[has_nbrs], low)
        while not np.array_equal(jumped := new[new], new):
            new = jumped
        if np.array_equal(new, labels):
            return labels
        labels = new


def spd_all_pairs(g: Graph, clip: int | None = None) -> np.ndarray:
    """All-pairs hop distances: exact int32, or uint8 codes with a clip.

    Without a clip the result is the n x n int32 distance, ``UNREACHABLE``
    for a disconnected pair. With 1 <= clip <= 254 it is the n x n uint8
    code min(clip, d), or ``clip + 1`` for a disconnected pair, and the
    search stops after ``clip`` hops.

    Computed by a bit-packed multi-source BFS. ``reached[v]`` and
    ``frontier[v]`` are bitsets over sources, packed into ``ceil(n / 64)``
    uint64 words: bit s of ``frontier[v]`` is set when v lies at the current
    hop distance from s. One hop gathers the frontier rows of each node's
    neighbours (``take``) and ORs them with one ``reduceat`` over the CSR
    segments. ``reduceat`` returns the element at an empty segment's start
    instead of an identity, so ``frontier`` has one more row, n, that stays
    zero, and an isolated node's segment is that row alone. Bits not yet
    reached are the nodes at the next distance. Hops are counted rather than
    written: each hop that reaches a new pair adds 1 to every pair not
    reached before it, so a pair gains 1 per hop until it is reached and
    ends at its distance, or at ``clip`` if it is still unreached when the
    hops stop there. The count is uint8 (a clip stops it by hop 254);
    without a clip it widens to int32 only if the search passes 255 hops,
    and is cast to int32 once, after the last hop. The graph is undirected,
    so the unreached bits of source s at node v count directly as row v,
    column s of the symmetric result.

    Disconnected pairs are marked last, as the pairs whose component
    labels (``_component_labels``) differ, a block of rows at a time so
    that the comparison mask stays near 1 MiB; there are none when node 0
    is reached from every source. Labels decide, not the unreached bits,
    because a search stopped at the clip leaves far-apart pairs unreached
    too.

    Working memory besides the output: n x n/8-byte bitsets (``reached``,
    ``unreached``, and ``frontier`` and the next frontier, each with its
    zero row, all allocated once), the gathered neighbour frontiers (2m x
    n/8 bytes for m edges, one row more per isolated node) and one unpacked
    n x n uint8 array per hop. Without a clip the uint8 count lives beside
    the int32 result while it is cast. Past ``MAX_PAIRS`` pairs it raises
    MemoryError before allocating.
    """
    n = g.num_nodes
    if clip is not None:
        check_clip(clip)
    check_pairs("spd_all_pairs", n * n)
    hops, dtype, fill = ((n - 1, np.int32, UNREACHABLE) if clip is None
                         else (min(clip, n - 1), np.uint8, clip + 1))
    nbrs, starts = g.indices, g.indptr[:-1]
    isolated = np.diff(g.indptr) == 0
    if isolated.any():  # each isolated node's segment is the zero row n
        nbrs = np.insert(nbrs, starts[isolated], n)
        starts = starts + np.cumsum(isolated) - isolated
    out = np.zeros((n, n), dtype=np.uint8)
    src = np.arange(n)
    reached = np.zeros((n, (n + 63) // 64), dtype=np.uint64)
    reached[src, src >> 6] = 1 << (src & 63).astype(np.uint64)
    frontier = np.zeros((n + 1, reached.shape[1]), dtype=np.uint64)
    frontier[:n] = reached
    nxt, unreached = np.zeros_like(frontier), np.empty_like(reached)
    for hop in range(hops):
        np.bitwise_or.reduceat(frontier.take(nbrs, 0), starts, axis=0,
                               out=nxt[:n])
        np.invert(reached, out=unreached)
        nxt[:n] &= unreached
        if not nxt.any():
            break
        if hop == 255:  # the next count would pass uint8
            out = out.astype(dtype)
        out += _unpack(unreached, n)
        reached |= nxt[:n]
        frontier, nxt = nxt, frontier
    out = out.astype(dtype, copy=False)
    if _unpack(reached[:1], n).all():
        return out
    labels = _component_labels(g)
    block = max(1, 2 ** 20 // n)
    for i in range(0, n, block):
        rows = out[i:i + block]
        rows[labels[i:i + block, None] != labels] = fill
    return out


def ghd(h: Hierarchy, k: int) -> np.ndarray:
    """Level-k hierarchy distance between all pairs of base nodes (int32).

    Level 0 is the plain shortest-path distance; level k>0 is the level-k
    shortest-path distance between the nodes' cluster images. Past
    ``MAX_PAIRS`` base node pairs it raises MemoryError before allocating.
    """
    if not 0 <= k <= h.max_level:
        raise GraphValidationError(f"level {k} out of range [0, {h.max_level}]")
    img = h.image(k)
    check_pairs("ghd", len(img) * len(img))
    return spd_all_pairs(h.levels[k])[img][:, img]


@dataclass(frozen=True)
class HdseTensor:
    """Clipped per-level distance codes, shape (rows, cols, levels), uint8.

    ``entries[i, j, m]`` is min(clip, d) for the pair's distance d at the
    m-th encoded level, or ``clip + 1`` for an unreachable pair.
    """

    entries: np.ndarray
    clip: int


# Folded ids are re-densified once their bound passes this, so that an id
# times the next column's span stays far inside int64.
_KEY_LIMIT = 2 ** 32


def rank_ids(ids: list[np.ndarray], bound: int) -> int:
    """Replace ids in [0, bound) in place by joint dense ranks; their count.

    Ranks keep the ids' order. A bound of at most the id count is bucketed
    (a presence array numbered by ``cumsum``, no sort); a larger one ranks
    each block's ``np.unique`` by ``searchsorted``, one block at a time.
    """
    if bound <= sum(i.size for i in ids):
        present = np.zeros(bound, dtype=bool)
        for i in ids:
            present[i] = True
        rank = np.cumsum(present) - 1
        for i in ids:
            i[...] = rank[i]
        return int(rank[-1]) + 1
    distinct = np.unique(np.concatenate([np.unique(i) for i in ids]))
    for i in ids:
        i[...] = np.searchsorted(distinct, i)
    return len(distinct)


def fold_rows(blocks: list[np.ndarray]) -> tuple[list[np.ndarray], int]:
    """Joint ids of the rows of same-width 2-D integer blocks; their bound.

    Equal rows get equal ids in [0, bound), in the rows' joint
    lexicographic order, not necessarily dense. Columns are folded in
    turn, in place, into each block's slice of one id array: id * span +
    value - lo, with lo and span the column's minimum and value count over
    all blocks, widened to take in 0. The ids are int32 while the spans
    multiply to less than 2**31, else int64 and re-ranked (``rank_ids``)
    whenever their bound passes ``_KEY_LIMIT``: with columns of fewer than
    2**31 values each and fewer than 2**31 rows, no product overflows.
    """
    width = blocks[0].shape[1]
    los = [min(int(b[:, j].min(initial=0)) for b in blocks)
           for j in range(width)]  # a min over axis 0 is slower
    spans = [max(int(b[:, j].max(initial=0)) for b in blocks) - lo + 1
             for j, lo in enumerate(los)]
    dtype = np.int32 if math.prod(spans) < 2 ** 31 else np.int64
    # one np.empty array: np.zeros, or one per block, page-faults each call
    sizes = np.cumsum([len(b) for b in blocks])
    flat = (np.empty if width else np.zeros)(sizes[-1], dtype=dtype)
    ids = np.split(flat, sizes[:-1])
    bound = 1  # ids < bound
    for j, (lo, span) in enumerate(zip(los, spans)):
        for i, b in zip(ids, blocks):
            if j:  # both branches cast any integer column to dtype
                i *= span
                np.add(i, b[:, j], out=i, dtype=dtype, casting="unsafe")
            else:
                i[...] = b[:, 0]
            if lo:
                i -= lo
        bound *= span
        if bound > _KEY_LIMIT:
            bound = rank_ids(ids, bound)
    return ids, bound


def tuple_keys(rows: np.ndarray) -> tuple[np.ndarray, int]:
    """Dense ids of the rows of a 2-D integer array and their count.

    Equal rows get equal ids, and ids are in [0, count) for count distinct
    rows, numbered in the rows' lexicographic order: ``fold_rows``'s ids,
    ranked by ``rank_ids``, as an index array.
    """
    (ids,), bound = fold_rows([rows])
    count = rank_ids([ids], bound)
    return ids.astype(np.intp, copy=False), count


def _codes(h: Hierarchy, base: int, clip: int) -> HdseTensor:
    """Codes from base nodes to level-``base`` nodes at levels base..K.

    Each slice gathers the level's codes row first, then column: two 1-D
    gathers, faster than one 2-D ``np.ix_``. Slice 0's columns are the
    level's own nodes in order, so it needs no column gather. Past
    ``MAX_PAIRS`` (base node, column) pairs it raises MemoryError first.
    """
    rows = h.image(base)
    cols = np.arange(h.levels[base].num_nodes)
    check_pairs("hdse", len(rows) * len(cols))
    entries = np.empty((len(rows), len(cols), h.max_level + 1 - base),
                       dtype=np.uint8)
    for m, level in enumerate(range(base, h.max_level + 1)):
        if m:
            assign = h.maps[level - 1].assign
            rows, cols = assign[rows], assign[cols]
        codes = spd_all_pairs(h.levels[level], clip).take(rows, 0)
        entries[:, :, m] = codes[:, cols] if m else codes
    return HdseTensor(entries, clip)


def hdse(h: Hierarchy, clip: int = 30) -> HdseTensor:
    """Codes of all base node pairs at every level, (n, n, K + 1); slice 0 is SPD."""
    return _codes(h, 0, clip)


def high_level_hdse(h: Hierarchy, c: int, clip: int = 30) -> HdseTensor:
    """Distances from base nodes to level-c clusters, (n, |V^c|, K + 1 - c).

    Slice m holds the level-(c+m) distance between each node's level-(c+m)
    image and the level-(c+m) image of each level-c cluster.
    """
    if not 1 <= c <= h.max_level:
        raise GraphValidationError(f"base level {c} out of range [1, {h.max_level}]")
    return _codes(h, c, clip)


# ---------------------------------------------------------------------------
# Tensor file format

_MAGIC = b"HDSE"
_HEADER = struct.Struct("<4sHIIBB")  # magic, version, rows, cols, levels, clip


def _check_codes(entries: np.ndarray, clip: int) -> None:
    """Refuse a clip outside [1, 254] and any entry above ``clip + 1``."""
    check_clip(clip)
    top = int(entries.max(initial=0))
    if top > clip + 1:
        raise GraphValidationError(
            f"tensor entry {top} above clip + 1 = {clip + 1}")


def write_tensor(entries: np.ndarray, clip: int) -> bytes:
    """Serialize a (rows, cols, levels) uint8 tensor with a 16-byte header.

    The header stores the level count in one byte, so a tensor of more than
    255 levels raises GraphValidationError, as do entries of another dtype
    (they would read back as uint8), a clip outside [1, 254] and an entry
    above ``clip + 1``, the unreachable code.
    """
    rows, cols, levels = entries.shape
    if levels > 255:
        raise GraphValidationError(
            f"{levels} levels: the binary tensor format holds at most 255")
    if entries.dtype != np.uint8:
        raise GraphValidationError(f"tensor entries must be uint8, "
                                   f"got {entries.dtype}")
    _check_codes(entries, clip)
    header = _HEADER.pack(_MAGIC, 1, rows, cols, levels, clip)
    # join copies the array's buffer once; tobytes would copy it first
    return b"".join((header, np.ascontiguousarray(entries)))


def read_tensor(data: bytes) -> tuple[np.ndarray, int]:
    """Inverse of write_tensor, refusing what it refuses; returns (entries, clip)."""
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
    _check_codes(payload, clip)
    return payload.reshape(rows, cols, levels).copy(), clip


# "000" .. "255" as ASCII digits, and each byte value's decimal width
_DIGITS = np.frombuffer(b"".join(b"%03d" % v for v in range(256)),
                        dtype=np.uint8).reshape(256, 3)
_WIDTH = np.array([len(str(v)) for v in range(256)], dtype=np.int32)
# values formatted per block of rows: the block's int32 work arrays stay
# small beside the text, which a writer holds whole
_JSON_BLOCK = 2 ** 12


def _json_rows(entries: np.ndarray):
    """Each (cols, levels) row of a uint8 tensor as compact JSON text,
    every row but the first led by a comma.

    A block of rows is written into one byte buffer. Each value takes its
    digits, one separator after them (',' or the ']' closing its column)
    and the brackets and commas before it that no value owns: '[[' before
    the tensor's first value, ',[[' before a block's first, '],[[' before
    a row's first and ',[' before a column's first. A ``cumsum`` of those
    widths gives each separator's offset; one scatter per digit position
    writes the digits, and brackets overwrite the buffer's ',' fill.
    """
    rows, cols, levels = entries.shape
    if not cols * levels:  # no values: every row is the same text
        text = "[" + ",".join(["[]"] * cols) + "]"
        yield from (("," if i else "") + text for i in range(rows))
        return
    per = max(1, _JSON_BLOCK // (cols * levels))
    lead = np.zeros((per, cols, levels), dtype=np.int32)
    lead[:, :, 0] = 2
    lead[:, 0, 0] = 4
    for r0 in range(0, rows, per):
        v = entries[r0:r0 + per].reshape(-1)
        b = len(v) // (cols * levels)
        lead[0, 0, 0] = 3 if r0 else 2
        width = _WIDTH[v]
        sep = width + lead[:b].reshape(-1)
        sep += 1
        np.cumsum(sep, out=sep)
        sep -= 1
        buf = np.full(sep[-1] + 2, ord(","), dtype=np.uint8)
        for j in range(3):  # ones, tens, hundreds
            at = width > j
            buf[sep[at] - 1 - j] = _DIGITS[v[at], 2 - j]
        sep = sep.reshape(b, cols, levels)
        first = sep[:, :, 0] - width.reshape(b, cols, levels)[:, :, 0]
        buf[first - 1] = ord("[")  # columns
        buf[first[:, 0] - 2] = ord("[")  # rows
        buf[sep[:, :, -1]] = ord("]")
        buf[sep[:, -1, -1] + 1] = ord("]")
        text = buf.tobytes().decode("ascii")
        starts = (first[:, 0] - 3).tolist()  # each ',' between rows
        starts[0] = 0
        for s, e in zip(starts, starts[1:] + [len(text)]):
            yield text[s:e]


def tensor_json_parts(entries: np.ndarray, clip: int):
    """``tensor_to_json``'s text as a head, one part per row and a tail:
    one block of rows is formatted at a time, and a writer needs no join.
    Entries of another dtype than uint8 raise GraphValidationError."""
    if entries.dtype != np.uint8:
        raise GraphValidationError(f"tensor entries must be uint8, "
                                   f"got {entries.dtype}")
    yield f'{{"clip":{clip},"entries":['
    yield from _json_rows(entries)
    yield f'],"shape":[{",".join(map(str, entries.shape))}]}}'


def tensor_to_json(entries: np.ndarray, clip: int) -> str:
    """Compact JSON of {"clip", "entries", "shape"}, keys sorted."""
    return "".join(tensor_json_parts(entries, clip))
