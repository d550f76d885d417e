"""Node-classification demo on synthetic two-community graphs.

Trains a single biased-attention layer plus a linear classifier with plain
full-batch gradient descent, once per structural encoding (none, shortest-path
distance, hierarchical distance), and reports test accuracy at the best
validation epoch. Node features are random, so the only usable signal is the
community structure exposed through the attention bias.

Every graph in the dataset has the same node count, so each epoch passes the
whole dataset as one (graphs, nodes, features) batch through
``attention.BiasedAttentionLayer``. The distance codes do not change
between epochs, so they are numbered once per run (``attention.code_keys``)
and the keys passed to every forward pass. This module adds only the linear
classifier, the masked cross-entropy and the training loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .attention import (BiasedAttentionLayer, code_keys,
                        init_attention_params, init_bias_params)
from .coarsen import build_hierarchy
from .distance import hdse
from .graph import Graph, GraphValidationError
from .refine import community_pair_graph

ENCODINGS = ("none", "spd", "hdse")

NODES_PER_BLOCK = 15
P_INTRA = 0.3
Q_INTER = 0.05
FEATURE_DIM = 32
TRAIN_FRAC = 0.6
VAL_FRAC = 0.2
HEADS = 4
HEAD_DIM = 8
EMBED_DIM = 16
HIDDEN_DIM = 16
CLIP = 30
LEVELS = 1          # hierarchy depth for the hdse encoding
ALGO = "louvain"
# content attention starts near-uniform so the distance-bias path, not
# memorization of the random features, carries the early training signal
QK_SCALE = 0.1


@dataclass
class DemoConfig:
    num_graphs: int = 20
    epochs: int = 300
    lr: float = 2.0
    eval_every: int = 10

    def __post_init__(self):
        # 0 epochs leave no epoch to report; an inf or NaN lr gives NaN weights
        if self.epochs < 1 or not 0 < self.lr < np.inf:
            raise GraphValidationError("need epochs >= 1 and a positive, finite lr")
        if self.num_graphs < 1 or self.eval_every < 1:
            raise GraphValidationError("need num_graphs >= 1 and eval_every >= 1")


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


def _distance_codes(g: Graph, encoding: str, seed: int) -> np.ndarray:
    """(n, n, levels) uint8 codes; SPD is HDSE over a zero-level hierarchy."""
    levels = 0 if encoding == "spd" else LEVELS
    h = build_hierarchy(g, ALGO, levels, seed=seed)
    return hdse(h, clip=CLIP).entries


def make_dataset(cfg: DemoConfig, seed: int):
    """Graphs and their batch: (graphs, x, labels, masks).

    ``x`` holds random features, (graphs, nodes, FEATURE_DIM); ``labels``
    the block of each node, (graphs, nodes); ``masks`` maps "train", "val"
    and "test" to (graphs, nodes) boolean node splits.
    """
    rng = np.random.default_rng(seed)
    graphs = [community_pair_graph(NODES_PER_BLOCK, P_INTRA, Q_INTER,
                                   seed=seed * 1000 + i)
              for i in range(cfg.num_graphs)]
    n = 2 * NODES_PER_BLOCK
    x = np.empty((cfg.num_graphs, n, FEATURE_DIM))
    rank = np.empty((cfg.num_graphs, n), dtype=np.intp)  # place in a shuffle
    for b in range(cfg.num_graphs):
        x[b] = rng.standard_normal((n, FEATURE_DIM))
        rank[b, rng.permutation(n)] = np.arange(n)
    n_train = int(round(TRAIN_FRAC * n))
    n_val = int(round(VAL_FRAC * n))
    masks = {"train": rank < n_train,
             "val": (rank >= n_train) & (rank < n_train + n_val),
             "test": rank >= n_train + n_val}
    labels = np.stack([g.node_labels for g in graphs])
    return graphs, x, labels, masks


def _cross_entropy_masked(logits: np.ndarray, onehot: np.ndarray,
                          mask: np.ndarray, count: int):
    """Mean CE over the ``count`` masked positions; returns (loss, d_logits).

    ``onehot`` holds the labels one-hot along the last axis of ``logits``.
    """
    shifted = logits - logits.max(axis=-1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    logp = shifted - logz
    loss = -((logp * onehot).sum(axis=-1) * mask).sum() / count
    return loss, (np.exp(logp) - onehot) * mask[..., None] / count


def train_demo(encoding: str, seed: int, cfg: DemoConfig | None = None) -> DemoResult:
    """Train one model with the given encoding; deterministic per seed."""
    if encoding not in ENCODINGS:
        raise GraphValidationError(f"unknown encoding {encoding!r}")
    cfg = cfg or DemoConfig()
    graphs, x, labels, masks = make_dataset(cfg, seed)
    rng = np.random.default_rng(seed + 7)
    attn = init_attention_params(FEATURE_DIM, HEADS, HEAD_DIM, rng)
    attn.w_q *= QK_SCALE
    attn.w_k *= QK_SCALE
    codes = keys = bias = None
    if encoding != "none":
        # the codes take no draws from rng: Louvain seeds its own generator
        codes = np.stack([_distance_codes(g, encoding, seed) for g in graphs])
        bias = init_bias_params(codes.shape[-1], CLIP, EMBED_DIM, HIDDEN_DIM,
                                HEADS, rng)
        keys = code_keys(codes, bias)  # the codes are the same every epoch
    out_dim = HEADS * HEAD_DIM
    n_classes = 2
    w_c = rng.uniform(-1, 1, (out_dim, n_classes)) / np.sqrt(out_dim)
    b_c = np.zeros(n_classes)
    layer = BiasedAttentionLayer(attn, bias)
    onehot = np.eye(n_classes)[labels]
    n_train = int(masks["train"].sum())

    def accuracy(cls: np.ndarray, split: str) -> float:
        pred = cls.argmax(axis=-1)
        m = masks[split]
        return float(((pred == labels) & m).sum() / m.sum())

    metrics = []
    best_val, best = -1.0, None  # epoch 0 is always evaluated and recorded
    for epoch in range(cfg.epochs):
        with np.errstate(over="ignore", invalid="ignore"):  # a diverging lr
            out = layer.forward(x, codes, keys=keys)
            cls = out @ w_c + b_c
            loss, d_cls = _cross_entropy_masked(cls, onehot, masks["train"],
                                                n_train)
        if not np.isfinite(loss):  # stop before this epoch is evaluated
            break
        if epoch % cfg.eval_every == 0 or epoch == cfg.epochs - 1:
            val = accuracy(cls, "val")
            metrics.append((epoch, float(loss), accuracy(cls, "train"),
                            accuracy(cls, "test")))
            if val > best_val:
                best_val, best = val, metrics[-1]
        layer.apply_gradients(layer.backward(d_cls @ w_c.T), cfg.lr)
        w_c -= cfg.lr * (out.reshape(-1, out_dim).T
                         @ d_cls.reshape(-1, n_classes))
        b_c -= cfg.lr * d_cls.sum(axis=(0, 1))

    best_epoch, _, train_acc, test_acc = best
    return DemoResult(encoding, seed, train_acc, best_val, test_acc,
                      best_epoch, metrics)


def run_all_encodings(seeds, cfg: DemoConfig | None = None):
    """Per-encoding results for every seed, plus mean test accuracies."""
    if not seeds or min(seeds) < 0:
        raise GraphValidationError("need at least one seed, and every seed >= 0")
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
