"""What the tracer wraps in each hdse layer, and the per-layer metrics.

``TARGETS`` names every traced function as ``layer.function`` together with
the hook that counts work from its arguments and result. ``per_layer``
turns one traced pass over the inputs into the flat metric dictionary that
BENCHMARK.json lists; names the library no longer has read as zero.
"""

from __future__ import annotations

import numpy as np


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _packed(codes) -> np.ndarray:
    """One int64 key per pair from its (levels,) uint8 code tuple."""
    codes = np.asarray(codes).astype(np.int64)
    shifts = 8 * np.arange(codes.shape[-1])
    return (codes << shifts).sum(axis=-1).ravel()


def _spd(t, args, kwargs, g):
    g = _arg(args, kwargs, 0, "g")
    t.counts["spd.sources"] += g.num_nodes
    key = hash((g.num_nodes, g.indptr.tobytes(), g.indices.tobytes()))
    t.scratch.setdefault("levels", set()).add((t.item, key))


def _girvan_newman(t, args, kwargs, part):
    t.counts["gn.edges"] += _arg(args, kwargs, 0, "g").num_edges


def _build_hierarchy(t, args, kwargs, h):
    for k in (1, 2):
        if len(h.levels) > k:
            t.counts[f"level_nodes.{k}"] += h.levels[k].num_nodes


def _write_tensor(t, args, kwargs, data):
    t.counts["tensor.bytes"] += len(data)


def _read_tensor(t, args, kwargs, result):
    t.counts["tensor.bytes"] += len(_arg(args, kwargs, 0, "data"))


def _refine_pair(t, args, kwargs, result):
    cm1, cm2 = result
    iters = len(cm1.colors) - 1
    n1 = _arg(args, kwargs, 0, "g1").num_nodes
    n2 = _arg(args, kwargs, 1, "g2").num_nodes
    t.counts["refine.iterations"] += iters
    t.counts["refine.row_tuples"] += iters * (n1 * n1 + n2 * n2)
    t.counts["refine.distinguished"] += cm1.histogram() != cm2.histogram()


def _bias_matrix(t, args, kwargs, result):
    codes = np.asarray(_arg(args, kwargs, 0, "codes"))
    p = _arg(args, kwargs, 1, "p")
    rows, cols, levels = codes.shape
    embed, hidden = p.embeddings.shape[2], p.w1.shape[1]
    t.counts["attn.pairs"] += rows * cols
    t.counts["attn.distinct"] += len(np.unique(_packed(codes)))
    t.counts["attn.flop"] += rows * cols * (2 * levels * embed * hidden
                                            + 2 * hidden * p.w2.shape[1])


def _attention_forward(t, args, kwargs, result):
    x = _arg(args, kwargs, 0, "x")
    params = _arg(args, kwargs, 1, "params")
    ctx = kwargs.get("x_ctx", args[3] if len(args) > 3 else None)
    n, d = x.shape
    m = n if ctx is None else ctx.shape[0]
    heads, head_dim = params.w_q.shape[0], params.w_q.shape[2]
    t.counts["attn.flop"] += (2 * (n + 2 * m) * d * heads * head_dim
                              + 4 * heads * n * m * head_dim)


def _distance_codes(t, args, kwargs, codes):
    if codes is not None:
        t.scratch.setdefault("demo_codes", []).append(_packed(codes))


def _train_demo(t, args, kwargs, result):
    t.counts["demo.epochs"] += result.metrics[-1][0] + 1
    batch = t.scratch.pop("demo_codes", [])
    if batch:
        keys = np.concatenate(batch)
        t.counts["demo.pairs"] += len(keys)
        t.counts["demo.distinct"] += len(np.unique(keys))


def _encoding(args, kwargs):
    return _arg(args, kwargs, 0, "encoding")


TARGETS = {
    "graph.load_edge_list": (None, None),
    "coarsen.build_hierarchy": (_build_hierarchy, None),
    "coarsen.louvain": (None, None),
    "coarsen.girvan_newman": (_girvan_newman, None),
    "coarsen.heavy_edge_matching": (None, None),
    "coarsen.hierarchy_to_json": (None, None),
    "coarsen.hierarchy_from_json": (None, None),
    "distance.spd_all_pairs": (_spd, None),
    "distance.hdse": (None, None),
    "distance.high_level_hdse": (None, None),
    "distance.write_tensor": (_write_tensor, None),
    "distance.read_tensor": (_read_tensor, None),
    "refine.refine_pair": (_refine_pair, None),
    "attention.bias_matrix": (_bias_matrix, None),
    "attention.attention_forward": (_attention_forward, None),
    "demo.train_demo": (_train_demo, _encoding),
    "demo.make_dataset": (None, None),
    "demo._distance_codes": (_distance_codes, None),
}

ENCODINGS = ("none", "spd", "hdse")

# Counts that must repeat exactly between two traced passes over the inputs.
EXACT = ("distance.spd_all_pairs.sources", "coarsen.girvan_newman.edges",
         "refine.iterations", "refine.row_tuples", "attention.distinct_codes",
         "demo.epochs")


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(t, item_s: float, twin_flips: int) -> dict:
    """Flat per-layer metrics of one traced pass; ``item_s`` is its item time."""
    c = t.counts
    distinct_levels = len(t.scratch.get("levels", ()))
    m = {
        "graph.load_edge_list.self_s": t.self_s("graph.load_edge_list"),
        "graph.load_edge_list.calls": t.calls("graph.load_edge_list"),
        "coarsen.build_hierarchy.self_s": t.self_s("coarsen.build_hierarchy"),
        "coarsen.louvain.self_s": t.self_s("coarsen.louvain"),
        "coarsen.heavy_edge_matching.self_s": t.self_s("coarsen.heavy_edge_matching"),
        "coarsen.girvan_newman.self_s": t.self_s("coarsen.girvan_newman"),
        "coarsen.girvan_newman.calls": t.calls("coarsen.girvan_newman"),
        "coarsen.girvan_newman.edges": c["gn.edges"],
        "coarsen.json.self_s": (t.self_s("coarsen.hierarchy_to_json")
                                + t.self_s("coarsen.hierarchy_from_json")),
        "coarsen.level_nodes.1": c["level_nodes.1"],
        "coarsen.level_nodes.2": c["level_nodes.2"],
        "distance.spd_all_pairs.self_s": t.self_s("distance.spd_all_pairs"),
        "distance.spd_all_pairs.calls": t.calls("distance.spd_all_pairs"),
        "distance.spd_all_pairs.sources": c["spd.sources"],
        "distance.spd_per_level": _ratio(t.calls("distance.spd_all_pairs"),
                                         distinct_levels),
        "distance.hdse.self_s": t.self_s("distance.hdse"),
        "distance.high_level_hdse.self_s": t.self_s("distance.high_level_hdse"),
        "distance.tensor_io.self_s": (t.self_s("distance.write_tensor")
                                      + t.self_s("distance.read_tensor")),
        "distance.tensor_io.bytes": c["tensor.bytes"],
        "refine.refine_pair.self_s": t.self_s("refine.refine_pair"),
        "refine.refine_pair.calls": t.calls("refine.refine_pair"),
        "refine.iterations": c["refine.iterations"],
        "refine.row_tuples": c["refine.row_tuples"],
        "refine.distinguished": c["refine.distinguished"],
        "refine.twin_flips": twin_flips,
        "attention.bias_matrix.self_s": t.self_s("attention.bias_matrix"),
        "attention.attention_forward.self_s": t.self_s("attention.attention_forward"),
        "attention.pairs": c["attn.pairs"],
        "attention.distinct_codes": _ratio(c["attn.distinct"], c["attn.pairs"]),
        "attention.gflop_computed": c["attn.flop"] / 1e9,
        "demo.codes_s": t.total_s("demo._distance_codes"),
        "demo.make_dataset.self_s": t.self_s("demo.make_dataset"),
        "demo.epochs": c["demo.epochs"],
        "demo.distinct_codes": _ratio(c["demo.distinct"], c["demo.pairs"]),
        "other.self_s": item_s - t.top_level_s(),
    }
    for enc in ENCODINGS:
        m[f"demo.train_demo.self_s.{enc}"] = t.self_s(f"demo.train_demo.{enc}")
    return m


def shares(t, item_s: float) -> dict:
    """Self-time share of each traced name in one pass, largest first."""
    names = {s.name for s in t.spans}
    table = {name: t.self_s(name) / item_s for name in names}
    table["other"] = (item_s - t.top_level_s()) / item_s
    return dict(sorted(table.items(), key=lambda kv: -kv[1]))
