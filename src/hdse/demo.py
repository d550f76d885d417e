"""Node-classification demo on synthetic two-community graphs.

Trains a single biased-attention layer plus a linear classifier with plain
full-batch gradient descent, once per structural encoding (none, shortest-path
distance, hierarchical distance), and reports test accuracy at the best
validation epoch. Node features are random, so the only usable signal is the
community structure exposed through the attention bias.

Every graph in the dataset has the same node count, so the training loop runs
batched over graphs; the batched forward/backward mirrors the single-graph
attention module and is checked against it in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .attention import (AttentionParams, BiasParams, init_attention_params,
                        init_bias_params)
from .coarsen import build_hierarchy
from .distance import hdse, spd_all_pairs, _encode
from .graph import Graph
from .refine import community_pair_graph

ENCODINGS = ("none", "spd", "hdse")


@dataclass
class DemoConfig:
    num_graphs: int = 20
    nodes_per_block: int = 15
    p_intra: float = 0.3
    q_inter: float = 0.05
    feature_dim: int = 32
    heads: int = 4
    head_dim: int = 8
    embed_dim: int = 16
    hidden_dim: int = 16
    clip: int = 30
    levels: int = 1          # hierarchy depth for the hdse encoding
    algo: str = "louvain"
    epochs: int = 300
    lr: float = 2.0
    eval_every: int = 10
    train_frac: float = 0.6
    val_frac: float = 0.2
    # content attention starts near-uniform so the distance-bias path, not
    # memorization of the random features, carries the early training signal
    qk_scale: float = 0.1


@dataclass
class DemoResult:
    encoding: str
    seed: int
    train_accuracy: float
    val_accuracy: float
    test_accuracy: float
    best_epoch: int
    # (epoch, loss, train_acc, test_acc) per evaluated epoch
    metrics: list[tuple[int, float, float, float]] = field(default_factory=list)


def _distance_codes(g: Graph, encoding: str, cfg: DemoConfig,
                    seed: int) -> np.ndarray | None:
    if encoding == "none":
        return None
    if encoding == "spd":
        return _encode(spd_all_pairs(g).values, cfg.clip)[:, :, None]
    if encoding == "hdse":
        h = build_hierarchy(g, cfg.algo, cfg.levels, seed=seed)
        return hdse(h, clip=cfg.clip).entries
    raise ValueError(f"unknown encoding {encoding!r}")


def make_dataset(cfg: DemoConfig, seed: int):
    """Graphs with random features, block labels, and node splits."""
    rng = np.random.default_rng(seed)
    items = []
    for i in range(cfg.num_graphs):
        g = community_pair_graph(cfg.nodes_per_block, cfg.p_intra,
                                 cfg.q_inter, seed=seed * 1000 + i)
        n = g.num_nodes
        feats = rng.standard_normal((n, cfg.feature_dim))
        order = rng.permutation(n)
        n_train = int(round(cfg.train_frac * n))
        n_val = int(round(cfg.val_frac * n))
        items.append({
            "graph": g,
            "features": feats,
            "labels": g.node_labels,
            "train": order[:n_train],
            "val": order[n_train:n_train + n_val],
            "test": order[n_train + n_val:],
        })
    return items


def _cross_entropy_masked(logits: np.ndarray, labels: np.ndarray,
                          mask: np.ndarray):
    """Mean CE over masked positions; returns (loss, d_logits)."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    logp = shifted - logz
    count = int(mask.sum())
    picked = np.take_along_axis(logp, labels[..., None], axis=-1)[..., 0]
    loss = -(picked * mask).sum() / count
    d = np.exp(logp)
    np.put_along_axis(d, labels[..., None],
                      np.take_along_axis(d, labels[..., None], axis=-1) - 1.0,
                      axis=-1)
    return loss, d * mask[..., None] / count


class _BatchedModel:
    """Biased attention + linear classifier over a batch of equal-size graphs."""

    def __init__(self, attn: AttentionParams, bias: BiasParams | None,
                 w_c: np.ndarray, b_c: np.ndarray):
        self.attn = attn
        self.bias = bias
        self.w_c = w_c
        self.b_c = b_c
        self._cache = None

    def forward(self, x: np.ndarray, codes: np.ndarray | None) -> np.ndarray:
        """x: (B, n, d); codes: (B, n, n, levels) or None. Returns class logits."""
        p = self.attn
        cache: dict = {"x": x}
        bias_val = None
        if codes is not None:
            bp = self.bias
            batch, n, _, levels = codes.shape
            gathered = bp.embeddings[np.arange(levels), codes]
            cat = gathered.reshape(batch, n, n, -1)
            pre = cat @ bp.w1 + bp.b1
            hid = np.maximum(pre, 0.0)
            bias_val = hid @ bp.w2 + bp.b2      # (B, n, n, heads)
            cache.update(codes=codes, cat=cat, pre=pre, hid=hid)
        q = np.einsum("bnd,hde->bhne", x, p.w_q)
        k = np.einsum("bnd,hde->bhne", x, p.w_k)
        v = np.einsum("bnd,hde->bhne", x, p.w_v)
        scale = 1.0 / np.sqrt(p.head_dim)
        logits = np.einsum("bhne,bhme->bhnm", q, k) * scale
        if bias_val is not None:
            logits = logits + bias_val.transpose(0, 3, 1, 2)
        shifted = logits - logits.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        attn_w = e / e.sum(axis=-1, keepdims=True)
        out_heads = np.einsum("bhnm,bhme->bhne", attn_w, v)
        out = out_heads.transpose(0, 2, 1, 3).reshape(x.shape[0], x.shape[1], -1)
        cls = out @ self.w_c + self.b_c
        cache.update(q=q, k=k, v=v, attn=attn_w, scale=scale, out=out)
        self._cache = cache
        return cls

    def step(self, d_cls: np.ndarray, lr: float) -> None:
        """Backprop the class-logit gradient and apply one GD step."""
        c = self._cache
        p = self.attn
        x, out, attn_w = c["x"], c["out"], c["attn"]
        d_wc = np.einsum("bno,bnc->oc", out, d_cls)
        d_bc = d_cls.sum(axis=(0, 1))
        d_out = d_cls @ self.w_c.T
        batch, n, _ = x.shape
        d_heads = d_out.reshape(batch, n, p.heads, p.head_dim).transpose(0, 2, 1, 3)
        d_attn = np.einsum("bhne,bhme->bhnm", d_heads, c["v"])
        d_v = np.einsum("bhnm,bhne->bhme", attn_w, d_heads)
        inner = (d_attn * attn_w).sum(axis=-1, keepdims=True)
        d_logits = attn_w * (d_attn - inner)
        d_q = np.einsum("bhnm,bhme->bhne", d_logits, c["k"]) * c["scale"]
        d_k = np.einsum("bhnm,bhne->bhme", d_logits, c["q"]) * c["scale"]
        p.w_q -= lr * np.einsum("bnd,bhne->hde", x, d_q)
        p.w_k -= lr * np.einsum("bnd,bhne->hde", x, d_k)
        p.w_v -= lr * np.einsum("bnd,bhne->hde", x, d_v)
        if self.bias is not None and "codes" in c:
            bp = self.bias
            d_bias = d_logits.transpose(0, 2, 3, 1)  # (B, n, n, heads)
            d_w2 = np.einsum("bijh,bijo->ho", c["hid"], d_bias)
            d_b2 = d_bias.sum(axis=(0, 1, 2))
            d_hid = d_bias @ bp.w2.T
            d_pre = d_hid * (c["pre"] > 0)
            d_w1 = np.einsum("bijc,bijh->ch", c["cat"], d_pre)
            d_b1 = d_pre.sum(axis=(0, 1, 2))
            d_cat = d_pre @ bp.w1.T
            levels, embed_dim = bp.embeddings.shape[0], bp.embeddings.shape[2]
            d_gath = d_cat.reshape(batch, n, n, levels, embed_dim)
            d_emb = np.zeros_like(bp.embeddings)
            for lv in range(levels):
                np.add.at(d_emb[lv], c["codes"][:, :, :, lv].ravel(),
                          d_gath[:, :, :, lv].reshape(-1, embed_dim))
            bp.embeddings -= lr * d_emb
            bp.w1 -= lr * d_w1
            bp.b1 -= lr * d_b1
            bp.w2 -= lr * d_w2
            bp.b2 -= lr * d_b2
        self.w_c -= lr * d_wc
        self.b_c -= lr * d_bc

    def snapshot(self) -> dict:
        params = {"w_q": self.attn.w_q, "w_k": self.attn.w_k,
                  "w_v": self.attn.w_v, "w_c": self.w_c, "b_c": self.b_c}
        if self.bias is not None:
            params.update(embeddings=self.bias.embeddings, w1=self.bias.w1,
                          b1=self.bias.b1, w2=self.bias.w2, b2=self.bias.b2)
        return {k: v.copy() for k, v in params.items()}


def train_demo(encoding: str, seed: int, cfg: DemoConfig | None = None) -> DemoResult:
    """Train one model with the given encoding; deterministic per seed."""
    if encoding not in ENCODINGS:
        raise ValueError(f"unknown encoding {encoding!r}")
    cfg = cfg or DemoConfig()
    data = make_dataset(cfg, seed)
    rng = np.random.default_rng(seed + 7)

    attn = init_attention_params(cfg.feature_dim, cfg.heads, cfg.head_dim, rng)
    attn.w_q *= cfg.qk_scale
    attn.w_k *= cfg.qk_scale
    bias = None
    if encoding != "none":
        levels = 1 if encoding == "spd" else cfg.levels + 1
        bias = init_bias_params(levels, cfg.clip, cfg.embed_dim,
                                cfg.hidden_dim, cfg.heads, rng)
    out_dim = cfg.heads * cfg.head_dim
    n_classes = 2
    w_c = rng.uniform(-1, 1, (out_dim, n_classes)) / np.sqrt(out_dim)
    b_c = np.zeros(n_classes)
    model = _BatchedModel(attn, bias, w_c, b_c)

    x = np.stack([item["features"] for item in data])
    labels = np.stack([item["labels"] for item in data])
    codes = None
    if encoding != "none":
        codes = np.stack([_distance_codes(item["graph"], encoding, cfg, seed)
                          for item in data])
    batch, n = labels.shape
    masks = {}
    for split in ("train", "val", "test"):
        m = np.zeros((batch, n), dtype=bool)
        for b, item in enumerate(data):
            m[b, item[split]] = True
        masks[split] = m

    def accuracy(cls: np.ndarray, split: str) -> float:
        pred = cls.argmax(axis=-1)
        m = masks[split]
        return float(((pred == labels) & m).sum() / m.sum())

    metrics = []
    best = (-1.0, 0, None)  # (val_acc, epoch, params)
    for epoch in range(cfg.epochs):
        cls = model.forward(x, codes)
        loss, d_cls = _cross_entropy_masked(cls, labels, masks["train"])
        if epoch % cfg.eval_every == 0 or epoch == cfg.epochs - 1:
            val = accuracy(cls, "val")
            metrics.append((epoch, float(loss), accuracy(cls, "train"),
                            accuracy(cls, "test")))
            if val > best[0]:
                best = (val, epoch, model.snapshot())
        model.step(d_cls, cfg.lr)

    # restore the best-validation parameters and report its test accuracy
    val_acc, best_epoch, params = best
    model.attn.w_q[:], model.attn.w_k[:] = params["w_q"], params["w_k"]
    model.attn.w_v[:] = params["w_v"]
    model.w_c[:], model.b_c[:] = params["w_c"], params["b_c"]
    if bias is not None:
        bias.embeddings[:] = params["embeddings"]
        bias.w1[:], bias.b1[:] = params["w1"], params["b1"]
        bias.w2[:], bias.b2[:] = params["w2"], params["b2"]
    cls = model.forward(x, codes)
    return DemoResult(encoding, seed, accuracy(cls, "train"), val_acc,
                      accuracy(cls, "test"), best_epoch, metrics)


def run_all_encodings(seeds, cfg: DemoConfig | None = None):
    """Per-encoding results for every seed, plus mean test accuracies."""
    cfg = cfg or DemoConfig()
    results = {enc: [train_demo(enc, s, cfg) for s in seeds]
               for enc in ENCODINGS}
    means = {enc: float(np.mean([r.test_accuracy for r in rs]))
             for enc, rs in results.items()}
    return results, means


def metrics_to_csv(results: dict[str, list[DemoResult]],
                   means: dict[str, float]) -> str:
    """One row per encoding: per-seed test accuracies and their mean."""
    seeds = [r.seed for r in next(iter(results.values()))]
    lines = ["encoding," + ",".join(f"seed{s}" for s in seeds) + ",mean"]
    for enc in ENCODINGS:
        accs = ",".join(f"{r.test_accuracy:.4f}" for r in results[enc])
        lines.append(f"{enc},{accs},{means[enc]:.4f}")
    return "\n".join(lines) + "\n"
