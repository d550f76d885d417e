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
B equal-size graphs, (B, n, d), with ``codes`` and ``x_ctx`` carrying the same
leading axis. A batch runs the bias MLP once over the distinct code tuples of
all its graphs and the attention kernel once; gradients are sums over the
graphs. An empty graph or batch gives an empty output and zero gradients.

The kernel keeps the logits key-major, in one (heads, m, B, n) buffer, and
hands out its (B, heads, n, m) transposed view. The softmax and its backward
row dot then reduce over whole (B, n) blocks, one per head and key, and
``bias_matrix`` gathers its planes in the same order, so the bias adds as
one contiguous array and its gradient is read back without a copy. Sums
over the keys run in key order, so a graph's result does not depend on the
batch it runs in.

The kernels write the logits, their gradient, the Q/K/V projection and the
query and key gradients into an optional workspace, a dict of buffers, and
allocate afresh without one; results are bitwise equal either way. A
``BiasedAttentionLayer`` owns one and drops it when its input's shape
changes, so a fixed-shape training batch reuses its buffers every epoch.

Everything is plain numpy in float64; backward passes are written by hand and
checked against central finite differences in the test suite.
"""

from __future__ import annotations

import math
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

def code_keys(codes: np.ndarray,
              p: BiasParams) -> tuple[np.ndarray, np.ndarray]:
    """Check distance codes against ``p`` and number their distinct tuples.

    ``codes`` is a (..., levels) array of clipped distance codes in
    [0, clip + 1]; its pairs are taken in C order. Returns (tuples,
    inverse): the distinct code tuples, (count, levels), in lexicographic
    order, and the tuple id of each pair. Tuples are numbered by
    ``tuple_keys``, refinement's fold and rank, with no sort while the
    codes span few values.
    A caller whose codes do not change computes this once and passes it
    to every ``bias_matrix`` call.
    """
    codes = np.asarray(codes)
    if codes.ndim < 1 or codes.shape[-1] != p.levels:
        raise ValueError(f"expected (..., {p.levels}) codes, "
                         f"got {codes.shape}")
    if codes.dtype.kind not in "iu":  # a float or bool code cannot index
        raise ValueError(f"distance codes must be integers, got {codes.dtype}")
    if codes.size and (codes.min() < 0 or codes.max() > p.clip + 1):
        raise ValueError(f"distance code outside [0, {p.clip + 1}]")
    flat = codes.reshape(-1, p.levels)
    inverse, count = tuple_keys(flat)
    pair = np.empty(count, dtype=np.intp)
    pair[inverse] = np.arange(len(inverse))  # any one pair of each tuple
    return flat[pair], inverse


def bias_matrix(codes: np.ndarray, p: BiasParams,
                keys: tuple[np.ndarray, np.ndarray] | None = None):
    """Per-head bias from integer distance codes, shape (rows, cols, heads).

    ``codes`` is a (rows, cols, levels) array of clipped distance codes in
    [0, clip + 1]. A pair's bias depends only on its tuple of codes, so the
    embedding and MLP run once per distinct tuple, giving a (tuples, heads)
    table that is gathered onto the pairs. ``keys`` is ``code_keys(codes,
    p)``; when None it is computed here. The bias is stored key-major, as
    the attention kernel keeps its logits: it is the transposed view of a
    contiguous (heads, cols, rows) array. Returns (bias, cache) where cache
    feeds bias_backward; the cached tuple ids stay in C order.
    """
    codes = np.asarray(codes)
    if codes.ndim != 3 or codes.shape[2] != p.levels:
        raise ValueError(f"expected (rows, cols, {p.levels}) codes, "
                         f"got {codes.shape}")
    tuples, inverse = code_keys(codes, p) if keys is None else keys
    rows, cols, levels = codes.shape
    if len(inverse) != rows * cols or tuples.shape[1:] != (p.levels,):
        raise ValueError(f"keys of {len(inverse)} pairs and tuple shape "
                         f"{tuples.shape} do not fit codes of shape "
                         f"{codes.shape}")
    count = len(tuples)
    # (tuples, levels, embed_dim) -> concat levels
    cat = p.embeddings[np.arange(levels), tuples].reshape(
        count, levels * p.embeddings.shape[2])
    pre = cat @ p.w1 + p.b1
    hid = np.maximum(pre, 0.0)
    table = hid @ p.w2 + p.b2
    planes = np.take(table.T, inverse.reshape(rows, cols).T, axis=1)
    bias = planes.transpose(2, 1, 0)
    cache = {"tuples": tuples, "inverse": inverse, "cat": cat, "pre": pre,
             "hid": hid, "params": p}
    return bias, cache


def bias_backward(d_bias: np.ndarray, cache: dict):
    """Gradients of the bias function; returns (d_embeddings, d_w1, d_b1, d_w2, d_b2).

    ``d_bias`` is (rows, cols, heads), the shape of the bias. It is read
    key-major, as a (heads, cols * rows) array, so the transposed view of a
    contiguous (heads, cols, rows) gradient, such as the layer's
    ``d_logits``, is read without a copy. The tuple ids are put in the same
    order here, and each tuple sums its pairs in that order.
    """
    p: BiasParams = cache["params"]
    tuples, inverse, cat, pre, hid = (cache["tuples"], cache["inverse"],
                                      cache["cat"], cache["pre"], cache["hid"])
    levels, _, embed_dim = p.embeddings.shape
    # every pair adds its bias gradient to the table row of its tuple
    rows, cols, _ = d_bias.shape
    d_planes = d_bias.transpose(2, 1, 0).reshape(p.heads, len(inverse))
    key_major = inverse.reshape(rows, cols).T.ravel()
    d_table = np.empty((len(tuples), p.heads))
    for h in range(p.heads):
        d_table[:, h] = np.bincount(key_major, weights=d_planes[h],
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

def _split_heads(y, b: int, rows: int, parts: int, p: AttentionParams):
    """(b * rows, parts * heads * head_dim) -> (parts, b, heads, rows, head_dim)."""
    return y.reshape(b, rows, parts, p.heads, p.head_dim).transpose(2, 0, 3, 1, 4)


def _buffer(ws: dict | None, key: str, shape: tuple) -> np.ndarray:
    """An uninitialized float64 array of ``shape``: ``ws[key]`` when it has
    that shape, else a new array, kept as ``ws[key]`` if ``ws`` is a dict."""
    if ws is None:
        return np.empty(shape)
    buf = ws.get(key)
    if buf is None or buf.shape != shape:
        buf = ws[key] = np.empty(shape)
    return buf


def attention_forward(x: np.ndarray, params: AttentionParams,
                      bias: np.ndarray | None = None,
                      x_ctx: np.ndarray | None = None,
                      ws: dict | None = None):
    """Biased (multi-head) attention over one graph, ``x`` (n, model_dim).

    ``x_ctx`` (m, model_dim) supplies the key/value side; when None this is
    self-attention. ``bias`` is (n, m, heads) or None for no bias. Returns
    (out, cache), out (n, heads * head_dim): the batch-of-one ``_attention``,
    which takes ``ws``.
    """
    out, cache = _attention(x[None], params,
                            None if bias is None else bias[None],
                            None if x_ctx is None else x_ctx[None], ws)
    return out[0], cache


def _attention(x: np.ndarray, params: AttentionParams,
               bias: np.ndarray | None = None,
               x_ctx: np.ndarray | None = None,
               ws: dict | None = None):
    """attention_forward over B graphs at once: ``x`` (B, n, model_dim),
    ``x_ctx`` (B, m, model_dim) and ``bias`` (B, n, m, heads).

    Q is projected from ``x`` and K, V from the context (``x_ctx``, or ``x``
    itself for self-attention): one GEMM over all B * n rows and one over
    all B * m, written into one buffer. Activations are (B, heads, rows,
    head_dim). The logits are key-major (see the module docstring), so a
    bias from ``bias_matrix`` adds as one contiguous array, and
    ``cache["attn"]`` is a (B, heads, n, m) view of a (heads, m, B, n) array.

    ``ws`` is the workspace, a dict owned by the caller, or None. The
    projection and the logits are written into its buffers (allocated on
    first use, or when a shape differs), and ``cache`` holds views of them:
    the next call with the same ``ws`` overwrites this call's cache, and
    ``attention_backward`` must run before it. The output is always a new
    array.
    """
    if not all(np.isfinite(a).all() for a in (x, x_ctx) if a is not None):
        raise ValueError("non-finite input features")
    b, n, d = x.shape
    ctx = x if x_ctx is None else x_ctx
    if ctx.ndim != 3 or len(ctx) != b:
        raise ValueError(f"x_ctx of shape {ctx.shape} does not match x")
    m, width = ctx.shape[1], params.heads * params.head_dim
    w = np.stack((params.w_q, params.w_k, params.w_v)).transpose(
        2, 0, 1, 3).reshape(d, 3 * width)  # column (part, head, j)
    # Q's rows, then K's and V's side by side, in one buffer
    proj = _buffer(ws, "proj", (b * (n + 2 * m) * width,))
    q_rows = np.matmul(x.reshape(b * n, d), w[:, :width],
                       out=proj[:b * n * width].reshape(b * n, width))
    kv = np.matmul(ctx.reshape(b * m, d), w[:, width:],
                   out=proj[b * n * width:].reshape(b * m, 2 * width))
    (q,) = _split_heads(q_rows, b, n, 1, params)
    k, v = _split_heads(kv, b, m, 2, params)
    # the logits key-major, (heads, m, B, n): the softmax reduces over axis
    # 1, one pass over all B * n rows per key, not one short row at a time
    lt = _buffer(ws, "lt", (params.heads, m, b, n))
    np.matmul(k, q.transpose(0, 1, 3, 2), out=lt.transpose(2, 0, 1, 3))
    lt *= 1.0 / np.sqrt(params.head_dim)
    if bias is not None:
        if bias.shape != (b, n, m, params.heads):
            raise ValueError(f"bias shape {bias.shape[1:]} incompatible with "
                             f"({n}, {m}, {params.heads})")
        lt += bias.transpose(3, 2, 0, 1)
    # softmax in place; initial=-inf lets rows of no entries pass through
    lt -= lt.max(axis=1, keepdims=True, initial=-np.inf)
    np.exp(lt, out=lt)
    lt /= lt.sum(axis=1, keepdims=True)
    attn = lt.transpose(2, 0, 3, 1)  # (B, heads, n, m)
    out = (attn @ v).transpose(0, 2, 1, 3).reshape(b, n, width)
    return out, dict(x=x, ctx=ctx, q=q, k=k, v=v, attn=attn, params=params)


def attention_backward(d_out: np.ndarray, cache: dict,
                       ws: dict | None = None):
    """Backward pass of ``_attention`` for ``d_out`` (B, n, heads * head_dim).

    Returns (d_wq, d_wk, d_wv, d_logits): weight gradients summed over the
    batch, and the (B, heads, n, m) gradient of the pre-softmax logits, and
    so of an additive bias. Like ``cache["attn"]``, ``d_logits`` is a view of
    a contiguous key-major (heads, m, B, n) array. With a workspace ``ws``,
    that array and the query and key gradients are its buffers, so
    ``d_logits`` holds until the next backward pass with the same ``ws``.
    """
    params: AttentionParams = cache["params"]
    x, ctx, q, k, v, attn = (cache[key] for key in "x ctx q k v attn".split())
    b, _, n, _ = q.shape
    scale = 1.0 / np.sqrt(params.head_dim)
    (d_heads,) = _split_heads(d_out, b, n, 1, params)
    d_v = attn.transpose(0, 1, 3, 2) @ d_heads
    lt = attn.transpose(1, 3, 0, 2)  # key-major, as _attention keeps it
    dlt = _buffer(ws, "dlt", lt.shape)  # d_attn, then in place d_logits
    np.matmul(v, d_heads.transpose(0, 1, 3, 2), out=dlt.transpose(2, 0, 1, 3))
    # the row dot (d_attn * attn).sum over keys, one head at a time, so the
    # product is one head's block, not all heads'; each sum keeps key order
    for dh, ah in zip(dlt, lt):
        dh -= (dh * ah).sum(axis=0)
    dlt *= lt
    d_logits = dlt.transpose(2, 0, 3, 1)
    d_q = np.matmul(d_logits, k, out=_buffer(ws, "d_q", q.shape))
    d_q *= scale
    d_k = np.matmul(d_logits.transpose(0, 1, 3, 2), q,
                    out=_buffer(ws, "d_k", k.shape))
    d_k *= scale
    # tensordot: one (d, B * rows) @ (B * rows, heads * head_dim) GEMM each
    return tuple(np.tensordot(a, g, axes=([0, 1], [0, 2])).transpose(1, 0, 2)
                 for a, g in ((x, d_q), (ctx, d_k), (ctx, d_v))) + (d_logits,)


# ---------------------------------------------------------------------------
# Full layer

class BiasedAttentionLayer:
    """Attention layer with an optional distance-bias path.

    ``codes`` passed to forward is the integer distance tensor; when None the
    layer degenerates to unbiased attention. ``x_ctx`` switches to the linear
    node-to-cluster variant (codes then indexed node x cluster). An ``x`` of
    shape (B, n, d) is a batch of B graphs: ``codes`` is then
    (B, n, m, levels), ``x_ctx`` is (B, m, d), and the output is
    (B, n, heads * head_dim). ``keys``, if given, is ``code_keys(codes,
    bias)``.

    The layer owns the kernel's workspace (see ``_attention``). ``forward``
    drops it, together with the last call's activations, when ``x.shape``
    or ``x_ctx``'s shape differs from the last call's, before anything of
    the new call is allocated; calls of one shape reuse its buffers.
    ``backward`` differentiates the most recent ``forward``: that call
    overwrote the logits and projections of any earlier one in place.
    """

    def __init__(self, attn: AttentionParams, bias: BiasParams | None = None):
        self.attn = attn
        self.bias = bias
        self._cache = None
        self._ws: dict[str, np.ndarray] = {}
        self._shape = None  # the (x, x_ctx) shapes the workspace was sized for

    def forward(self, x: np.ndarray, codes: np.ndarray | None = None,
                x_ctx: np.ndarray | None = None,
                keys: tuple[np.ndarray, np.ndarray] | None = None
                ) -> np.ndarray:
        self._cache = None  # free the last call's activations before this one
        shape = (x.shape, None if x_ctx is None else x_ctx.shape)
        if shape != self._shape:  # and its buffers, if they will not fit
            self._ws, self._shape = {}, shape
        batched = x.ndim == 3
        bias, bias_cache = None, None
        if codes is not None:
            if self.bias is None:
                raise ValueError("layer has no bias parameters")
            codes = np.asarray(codes)
            if codes.ndim != x.ndim + 1 or codes.shape[:-3] != x.shape[:-2]:
                raise ValueError(f"codes of shape {codes.shape} do not match "
                                 f"x of shape {x.shape}")
            # the MLP acts on each pair alone, so one call covers the batch
            bias, bias_cache = bias_matrix(
                codes.reshape(math.prod(codes.shape[:-2]), *codes.shape[-2:]),
                self.bias, keys)
            bias = bias.reshape(codes.shape[:-1] + (self.bias.heads,))
        # a batch skips attention_forward, whose perfbench hook reads 2-D x
        kernel = _attention if batched else attention_forward
        out, cache = kernel(x, self.attn, bias, x_ctx, self._ws)
        self._cache = (cache, bias_cache)
        return out

    def backward(self, d_out: np.ndarray) -> dict[str, np.ndarray]:
        """Gradients keyed by parameter name, each shaped like the parameter
        of that name in ``parameters()``, for the last ``forward`` call."""
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        cache, bias_cache = self._cache
        *grads, d_logits = attention_backward(d_out, cache, self._ws)
        if bias_cache is not None:  # (B * n, m, heads) view of d_logits
            b, heads, n, m = d_logits.shape
            grads += bias_backward(
                d_logits.transpose(0, 2, 3, 1).reshape(b * n, m, heads),
                bias_cache)
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
