"""Distance-biased multi-head attention with analytic gradients.

The bias path embeds each level's clipped distance code into a learnable
table, concatenates the levels, and maps the result through a one-hidden-layer
ReLU MLP to one scalar per head. That scalar is added to the scaled attention
logits before the softmax. The bias depends on a pair only through its tuple
of codes, and pairs share few tuples, so the MLP runs once per distinct tuple
and its backward pass once per tuple, after summing the gradients of the pairs
that share it. A linear (cluster-projected) variant attends from base nodes to
coarse clusters using the node-to-cluster distance tensor.

``BiasedAttentionLayer`` takes one graph, ``x`` of shape (n, d), or a batch of
B equal-size graphs, ``x`` of shape (B, n, d) with ``codes`` and ``x_ctx``
carrying the same leading B axis. A batch runs the bias MLP once over the
distinct code tuples of all its graphs and the attention kernel once per
graph; its gradients are the sums of the per-graph gradients. A graph of no
nodes gives an empty output and zero gradients.

Everything is plain numpy in float64; backward passes are written by hand and
checked against central finite differences in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .distance import tuple_keys


@dataclass
class BiasParams:
    """Parameters of the distance -> per-head bias function.

    ``embeddings`` has shape (levels, clip + 2, embed_dim); row ``clip + 1``
    of each table is the embedding of the unreachable code. The MLP maps the
    concatenated level embeddings to one scalar per head.
    """

    embeddings: np.ndarray
    w1: np.ndarray  # (levels * embed_dim, hidden)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (hidden, heads)
    b2: np.ndarray  # (heads,)

    @property
    def levels(self) -> int:
        return self.embeddings.shape[0]

    @property
    def clip(self) -> int:
        return self.embeddings.shape[1] - 2

    @property
    def heads(self) -> int:
        return self.w2.shape[1]


@dataclass
class AttentionParams:
    """Per-head query/key/value projections, each (heads, model_dim, head_dim)."""

    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray

    @property
    def heads(self) -> int:
        return self.w_q.shape[0]

    @property
    def head_dim(self) -> int:
        return self.w_q.shape[2]


def _uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def init_bias_params(levels: int, clip: int, embed_dim: int, hidden: int,
                     heads: int, rng: np.random.Generator) -> BiasParams:
    cat = levels * embed_dim
    return BiasParams(
        embeddings=_uniform(rng, (levels, clip + 2, embed_dim), embed_dim),
        w1=_uniform(rng, (cat, hidden), cat),
        b1=np.zeros(hidden),
        w2=_uniform(rng, (hidden, heads), hidden),
        b2=np.zeros(heads),
    )


def init_attention_params(model_dim: int, heads: int, head_dim: int,
                          rng: np.random.Generator) -> AttentionParams:
    shape = (heads, model_dim, head_dim)
    return AttentionParams(
        w_q=_uniform(rng, shape, model_dim),
        w_k=_uniform(rng, shape, model_dim),
        w_v=_uniform(rng, shape, model_dim),
    )


# ---------------------------------------------------------------------------
# Bias function

def bias_matrix(codes: np.ndarray, p: BiasParams):
    """Per-head bias from integer distance codes, shape (rows, cols, heads).

    ``codes`` is a (rows, cols, levels) array of clipped distance codes in
    [0, clip + 1]. A pair's bias depends only on its tuple of codes, so the
    embedding and MLP run once per distinct tuple, giving a (tuples, heads)
    table that is gathered onto the pairs. Tuples are numbered by
    ``tuple_keys``, which needs no sort while the codes span few values. The
    bias is stored head-major: it is the transposed view of a contiguous
    (heads, rows, cols) array, so each head's plane is contiguous. Returns
    (bias, cache) where cache feeds bias_backward.
    """
    codes = np.asarray(codes)
    if codes.ndim != 3 or codes.shape[2] != p.levels:
        raise ValueError(f"expected (rows, cols, {p.levels}) codes, "
                         f"got {codes.shape}")
    if codes.dtype.kind not in "iu":  # a float or bool code cannot index
        raise ValueError(f"distance codes must be integers, got {codes.dtype}")
    if codes.size and (codes.min() < 0 or codes.max() > p.clip + 1):
        raise ValueError(f"distance code outside [0, {p.clip + 1}]")
    rows, cols, levels = codes.shape
    flat = codes.reshape(rows * cols, levels)
    inverse, count = tuple_keys(flat)
    pair = np.empty(count, dtype=np.intp)
    pair[inverse] = np.arange(len(inverse))  # any one pair of each tuple
    tuples = flat[pair]
    # (tuples, levels, embed_dim) -> concat levels
    cat = p.embeddings[np.arange(levels), tuples].reshape(
        count, levels * p.embeddings.shape[2])
    pre = cat @ p.w1 + p.b1
    hid = np.maximum(pre, 0.0)
    table = hid @ p.w2 + p.b2
    planes = np.take(np.ascontiguousarray(table.T), inverse, axis=1)
    bias = planes.reshape(p.heads, rows, cols).transpose(1, 2, 0)
    cache = {"tuples": tuples, "inverse": inverse, "cat": cat, "pre": pre,
             "hid": hid, "params": p}
    return bias, cache


def bias_backward(d_bias: np.ndarray, cache: dict):
    """Gradients of the bias function; returns (d_embeddings, d_w1, d_b1, d_w2, d_b2).

    ``d_bias`` is (rows, cols, heads); it is read one head plane at a time,
    so a transposed view of a head-major array is read without a copy.
    """
    p: BiasParams = cache["params"]
    tuples, inverse, cat, pre, hid = (cache["tuples"], cache["inverse"],
                                      cache["cat"], cache["pre"], cache["hid"])
    levels, _, embed_dim = p.embeddings.shape
    # every pair adds its bias gradient to the table row of its tuple
    d_planes = d_bias.transpose(2, 0, 1).reshape(p.heads, len(inverse))
    d_table = np.empty((len(tuples), p.heads))
    for h in range(p.heads):
        d_table[:, h] = np.bincount(inverse, weights=d_planes[h],
                                    minlength=len(tuples))
    d_w2 = hid.T @ d_table
    d_b2 = d_table.sum(axis=0)
    d_pre = (d_table @ p.w2.T) * (pre > 0)
    d_w1 = cat.T @ d_pre
    d_b1 = d_pre.sum(axis=0)
    d_cat = (d_pre @ p.w1.T).reshape(len(tuples), levels, embed_dim)
    d_emb = np.zeros_like(p.embeddings)
    np.add.at(d_emb, (np.arange(levels), tuples), d_cat)
    return d_emb, d_w1, d_b1, d_w2, d_b2


# ---------------------------------------------------------------------------
# Attention

def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, in place: overwrites and returns ``logits``."""
    # initial=-inf lets a graph of no nodes (rows of no entries) pass through
    logits -= logits.max(axis=-1, keepdims=True, initial=-np.inf)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=-1, keepdims=True)
    return logits


def attention_forward(x: np.ndarray, params: AttentionParams,
                      bias: np.ndarray | None = None,
                      x_ctx: np.ndarray | None = None):
    """Biased (multi-head) attention.

    ``x`` is (n, model_dim). ``x_ctx`` supplies the key/value side; when None
    this is self-attention. ``bias`` is (n, m, heads) or None for no bias.
    Returns (out, cache) with out of shape (n, heads * head_dim).
    """
    if not all(np.isfinite(a).all() for a in (x, x_ctx) if a is not None):
        raise ValueError("non-finite input features")
    ctx = x if x_ctx is None else x_ctx
    q = x @ params.w_q                    # (heads, n, head_dim)
    k = ctx @ params.w_k
    v = ctx @ params.w_v
    scale = 1.0 / np.sqrt(params.head_dim)
    logits = q @ k.transpose(0, 2, 1)
    logits *= scale
    if bias is not None:
        if bias.shape != (x.shape[0], ctx.shape[0], params.heads):
            raise ValueError(f"bias shape {bias.shape} incompatible with "
                             f"({x.shape[0]}, {ctx.shape[0]}, {params.heads})")
        logits += bias.transpose(2, 0, 1)
    attn = _softmax_rows(logits)
    out = (attn @ v).transpose(1, 0, 2).reshape(
        x.shape[0], params.heads * params.head_dim)
    cache = {"x": x, "ctx": ctx, "q": q, "k": k, "v": v, "attn": attn,
             "scale": scale, "params": params}
    return out, cache


def attention_backward(d_out: np.ndarray, cache: dict):
    """Backward pass of attention_forward.

    Returns (d_wq, d_wk, d_wv, d_logits). ``d_logits``, the gradient of the
    pre-softmax logits and so of an additive bias, is head-major: shape
    (heads, n, m).
    """
    params: AttentionParams = cache["params"]
    x, ctx, q, k, v, attn, scale = (cache["x"], cache["ctx"], cache["q"],
                                    cache["k"], cache["v"], cache["attn"],
                                    cache["scale"])
    n = x.shape[0]
    d_heads = d_out.reshape(n, params.heads, params.head_dim).transpose(1, 0, 2)
    d_attn = d_heads @ v.transpose(0, 2, 1)
    d_v = attn.transpose(0, 2, 1) @ d_heads
    # softmax backward per row
    inner = (d_attn * attn).sum(axis=-1, keepdims=True)
    d_logits = attn * (d_attn - inner)
    d_q = (d_logits @ k) * scale
    d_k = (d_logits.transpose(0, 2, 1) @ q) * scale
    d_wq = x.T @ d_q
    d_wk = ctx.T @ d_k
    d_wv = ctx.T @ d_v
    return d_wq, d_wk, d_wv, d_logits


# ---------------------------------------------------------------------------
# Full layer

class BiasedAttentionLayer:
    """Attention layer with an optional distance-bias path.

    ``codes`` passed to forward is the integer distance tensor; when None the
    layer degenerates to unbiased attention. ``x_ctx`` switches to the linear
    node-to-cluster variant (codes then indexed node x cluster). An ``x`` of
    shape (B, n, d) is a batch of B graphs: ``codes`` is then
    (B, n, m, levels), ``x_ctx`` is (B, m, d), and the output is
    (B, n, heads * head_dim).
    """

    def __init__(self, attn: AttentionParams, bias: BiasParams | None = None):
        self.attn = attn
        self.bias = bias
        self._cache = None

    def forward(self, x: np.ndarray, codes: np.ndarray | None = None,
                x_ctx: np.ndarray | None = None) -> np.ndarray:
        self._cache = None  # free the last call's activations before this one
        batched = x.ndim == 3
        xs = x if batched else x[None]
        ctxs = [None] * len(xs)
        if x_ctx is not None:
            ctxs = x_ctx if batched else x_ctx[None]
            if ctxs.ndim != 3 or len(ctxs) != len(xs):
                raise ValueError(f"x_ctx of shape {x_ctx.shape} does not "
                                 f"match x of shape {x.shape}")
        biases, bias_cache = [None] * len(xs), None
        if codes is not None:
            if self.bias is None:
                raise ValueError("layer has no bias parameters")
            codes = np.asarray(codes)
            stacked = codes if batched else codes[None]
            if stacked.ndim != 4 or len(stacked) != len(xs):
                raise ValueError(f"codes of shape {codes.shape} do not match "
                                 f"x of shape {x.shape}")
            b, n, m, levels = stacked.shape
            # the MLP acts on each pair alone, so one call covers the batch
            flat, bias_cache = bias_matrix(stacked.reshape(b * n, m, levels),
                                           self.bias)
            biases = flat.reshape(b, n, m, self.bias.heads)
        outs, attn_caches = [], []
        for xi, bi, ci in zip(xs, biases, ctxs):
            out, cache = attention_forward(xi, self.attn, bi, ci)
            outs.append(out)
            attn_caches.append(cache)
        self._cache = (attn_caches, bias_cache, batched)
        return np.stack(outs) if batched else outs[0]

    def backward(self, d_out: np.ndarray) -> dict[str, np.ndarray]:
        """Gradients keyed by parameter name, each shaped like the parameter
        of that name in ``parameters()``."""
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        attn_caches, bias_cache, batched = self._cache
        d_outs = d_out if batched else d_out[None]
        # without a bias, drop each graph's d_logits at once: holding all of
        # them slows the unbiased backward pass by about 15%
        keep = 3 if bias_cache is None else 4
        per_graph = [attention_backward(d, c)[:keep]
                     for d, c in zip(d_outs, attn_caches)]
        grads = [sum(g[j] for g in per_graph) for j in range(3)]
        if bias_cache is not None:
            # (heads, b, n, m): head-major, like the bias, so nothing transposes
            d_bias = np.stack([g[3] for g in per_graph], axis=1)
            heads, b, n, m = d_bias.shape
            grads += bias_backward(
                d_bias.reshape(heads, b * n, m).transpose(1, 2, 0), bias_cache)
        named = self.parameters()
        # zeros for the bias parameters when forward ran without codes
        grads += [np.zeros_like(arr) for _, arr in named[len(grads):]]
        return {name: grad for (name, _), grad in zip(named, grads)}

    def parameters(self) -> list[tuple[str, np.ndarray]]:
        named = [("w_q", self.attn.w_q), ("w_k", self.attn.w_k),
                 ("w_v", self.attn.w_v)]
        if self.bias is not None:
            named += [(f.name, getattr(self.bias, f.name))
                      for f in fields(self.bias)]
        return named

    def apply_gradients(self, grads: dict[str, np.ndarray], lr: float) -> None:
        for name, param in self.parameters():
            param -= lr * grads[name]
