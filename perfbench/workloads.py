"""The four benchmark workloads and their per-item correctness checks.

``inputs()`` is the list of items of a run, drawn from a generator seeded by
``--seed``, smallest first. Item sizes are fixed and graphs have exact edge
counts, so every run, whatever its seed, does the same mix of work. A run
repeats the list in passes. ``run(item)`` is the only timed call; it makes
synchronous library calls through module attributes, so the tracer's
wrappers see them.
``check(item, out)`` runs outside the timed region and returns a problem
string or None. ``signature(out)`` must be the same in every pass.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

import gen
from layers import ENCODINGS


def _canonical(edges: np.ndarray) -> np.ndarray:
    """Edges as sorted unique (u < v) rows, as ``Graph.edge_array`` gives them."""
    e = np.sort(np.asarray(edges, dtype=np.int64).reshape(-1, 2), axis=1)
    return np.unique(e, axis=0)


def oracle_spd(n: int, edges: np.ndarray) -> np.ndarray:
    """All-pairs hop distances by frontier expansion with dense matmuls.

    Independent of the library's BFS; -1 marks unreachable pairs.
    """
    adj = np.zeros((n, n), dtype=np.float32)
    adj[edges[:, 0], edges[:, 1]] = 1.0
    adj[edges[:, 1], edges[:, 0]] = 1.0
    dist = np.full((n, n), -1, dtype=np.int64)
    np.fill_diagonal(dist, 0)
    seen = np.eye(n, dtype=bool)
    frontier = np.eye(n, dtype=np.float32)
    d = 0
    while True:
        d += 1
        new = ((frontier @ adj) > 0) & ~seen
        if not new.any():
            return dist
        dist[new] = d
        seen |= new
        frontier = new.astype(np.float32)


def oracle_modularity(n: int, edges: np.ndarray, assign: np.ndarray) -> float:
    m = len(edges)
    if m == 0:
        return 0.0
    deg = np.bincount(edges.ravel(), minlength=n).astype(np.float64)
    intra = np.sum(assign[edges[:, 0]] == assign[edges[:, 1]])
    tot = np.bincount(assign, weights=deg)
    return intra / m - float(np.sum((tot / (2.0 * m)) ** 2))


def components(n: int, edges: np.ndarray) -> np.ndarray:
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges.tolist():
        parent[find(u)] = find(v)
    _, labels = np.unique([find(x) for x in range(n)], return_inverse=True)
    return labels


class Infer:
    """Edge-list text -> hierarchy -> JSON -> tensors -> biased attention."""

    name = "infer"
    SIZES = (200, 275, 350, 425, 500)
    DIM, HEADS, HEAD_DIM, EMBED, HIDDEN, CLIP = 32, 4, 8, 16, 16, 30

    def __init__(self, hd, seed: int):
        self.hd, self.seed = hd, seed
        rng = np.random.default_rng([seed, 1 << 20])
        a = hd.attention
        attn = a.init_attention_params(self.DIM, self.HEADS, self.HEAD_DIM, rng)
        dense_bias = a.init_bias_params(3, self.CLIP, self.EMBED, self.HIDDEN,
                                        self.HEADS, rng)
        linear_bias = a.init_bias_params(2, self.CLIP, self.EMBED, self.HIDDEN,
                                         self.HEADS, rng)
        self.dense = a.BiasedAttentionLayer(attn, dense_bias)
        self.linear = a.BiasedAttentionLayer(attn, linear_bias)

    def inputs(self) -> list[dict]:
        rng = np.random.default_rng(self.seed)
        items = []
        for n in self.SIZES:
            edges = gen.infer_graph(n, rng)
            items.append({"n": n, "edges": _canonical(edges),
                          "text": gen.edge_list_text(n, edges),
                          "x": rng.standard_normal((n, self.DIM)),
                          "spd": oracle_spd(n, edges)})
        return items

    def run(self, item: dict) -> dict:
        hd, x = self.hd, item["x"]
        g = hd.graph.load_edge_list(item["text"])
        h = hd.coarsen.build_hierarchy(g, "louvain", 2)
        h2 = hd.coarsen.hierarchy_from_json(hd.coarsen.hierarchy_to_json(h))
        t = hd.distance.hdse(h2, clip=self.CLIP)
        hl = hd.distance.high_level_hdse(h2, 1, clip=self.CLIP)
        codes = hd.distance.read_tensor(hd.distance.write_tensor(t.entries, t.clip))
        lcodes = hd.distance.read_tensor(hd.distance.write_tensor(hl.entries, hl.clip))
        assign = h2.maps[0].assign
        ctx = np.zeros((h2.levels[1].num_nodes, x.shape[1]))
        np.add.at(ctx, assign, x)
        ctx /= np.bincount(assign)[:, None]
        dense = self.dense.forward(x, codes[0])
        linear = self.linear.forward(x, lcodes[0], ctx)
        return {"g": g, "h": h, "h2": h2, "t": t, "hl": hl, "codes": codes,
                "lcodes": lcodes, "dense": dense, "linear": linear}

    def check(self, item: dict, out: dict) -> str | None:
        g, h, h2, t, hl = out["g"], out["h"], out["h2"], out["t"], out["hl"]
        if g.num_nodes != item["n"] or not np.array_equal(
                g.edge_array(), item["edges"]):
            return "edge-list text did not load as the generated graph"
        if (len(h.levels) != len(h2.levels)
                or any(a.num_nodes != b.num_nodes
                       or not np.array_equal(a.edge_array(), b.edge_array())
                       for a, b in zip(h.levels, h2.levels))
                or any(not np.array_equal(a.assign, b.assign)
                       for a, b in zip(h.maps, h2.maps))
                or list(h.coarsening_ratios) != list(h2.coarsening_ratios)
                or (h.algo, h.seed) != (h2.algo, h2.seed)):
            return "hierarchy JSON round-trip lost data"
        spd = item["spd"]
        want = np.where(spd < 0, t.clip + 1, np.minimum(spd, t.clip))
        if not np.array_equal(t.entries[:, :, 0], want):
            return "hdse base slice differs from oracle BFS"
        for (entries, clip), src in ((out["codes"], t), (out["lcodes"], hl)):
            if clip != src.clip or not np.array_equal(entries, src.entries):
                return "tensor write/read round-trip lost data"
        if not (np.isfinite(out["dense"]).all()
                and np.isfinite(out["linear"]).all()):
            return "attention output not finite"
        return None

    def signature(self, out: dict):
        return (hashlib.sha256(out["t"].entries.tobytes()).hexdigest(),
                hashlib.sha256(out["hl"].entries.tobytes()).hexdigest(),
                tuple(g.num_nodes for g in out["h"].levels))

    def describe(self, items, sigs) -> dict:
        return {"level_nodes": [list(s[2]) for s in sigs if s]}


# Twin and rewired pairs alternate along the sizes in the same order for every
# seed: refinement runs longer on a rewired pair, so the kind of each size is
# fixed and every seed does the same mix of work.
KINDS = ("twin", "rewired")


class Gdwl:
    """Colour refinement of larger graph pairs: ``refine_pair`` and its verdict.

    For each of 200, 250 and 300 nodes and each of spd, hdse/louvain K=2 and
    hdse/hem K=2, one twin or one-edge-rewired pair of its own and one
    ``refine_pair`` call: the refinement loop plus many mid-size SPD calls.
    """

    name = "gdwl"
    SIZES = (200, 250, 300)

    def __init__(self, hd, seed: int):
        self.hd, self.seed = hd, seed

    def _pair(self, kind: str, n: int, edges, rng) -> dict:
        other = gen.permuted(n, edges, rng) if kind == "twin" else \
            gen.rewired(n, edges, rng)
        return self._graphs(kind, n, edges, other)

    def _graphs(self, kind: str, n: int, e1, e2) -> dict:
        mk = self.hd.graph.make_graph
        return {"kind": kind, "n": n, "g1": mk(n, e1), "g2": mk(n, e2),
                "edges": (_canonical(e1), _canonical(e2))}

    def inputs(self) -> list[dict]:
        rng = np.random.default_rng(self.seed)
        ref = self.hd.refine
        encodings = {"spd": ref.SpdEncoding(),
                     "louvain": ref.HdseEncoding(levels=2, algo="louvain"),
                     "hem": ref.HdseEncoding(levels=2, algo="hem")}
        return [dict(self._pair(KINDS[j % 2], n, gen.infer_graph(n, rng), rng),
                     enc=label, encoding=enc)
                for j, n in enumerate(self.SIZES)
                for label, enc in encodings.items()]

    def _verdict(self, g1, g2, enc) -> bool:
        cm1, cm2 = self.hd.refine.refine_pair(g1, g2, enc)
        return cm1.histogram() != cm2.histogram()

    def run(self, item: dict) -> dict:
        return {"sig": (item["enc"], self._verdict(item["g1"], item["g2"],
                                                   item["encoding"]))}

    def check(self, item: dict, out: dict) -> str | None:
        sig = out["sig"]
        if item["kind"] == "twin" and sig[0] == "spd" and sig[1]:
            return "spd separated an isomorphic twin"
        return None

    def signature(self, out: dict):
        return out["sig"]

    def twin_flips(self, items, sigs) -> int:
        """Isomorphic twins that an hdse encoding separated."""
        return sum(1 for it, s in zip(items, sigs)
                   if s and it["kind"] == "twin" and s[0] != "spd" and s[-1])

    def describe(self, items, sigs) -> dict:
        lines = [f"{i}:{it['kind']}:{it['n']}:{s}"
                 for i, (it, s) in enumerate(zip(items, sigs))]
        return {"verdict_digest":
                hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16],
                "twin_flips": self.twin_flips(items, sigs)}


class GdwlGn(Gdwl):
    """The CLI default ``gdwl --enc hdse --algo newman`` (K=1) on small pairs.

    One item is a pair under spd and under that encoding: dodecahedron /
    Desargues, two generalized Petersen pairs GP(30, k1) / GP(30, k2), and
    twin or rewired pairs of 40 to 70 nodes. Girvan-Newman partitions are
    captured from the library's own call and checked against an independent
    modularity.
    """

    name = "gdwl_gn"
    SIZES = (40, 46, 52, 58, 64, 70)
    PETERSEN_N = 30

    def __init__(self, hd, seed: int):
        super().__init__(hd, seed)
        self.captured: list = []

    def inputs(self) -> list[dict]:
        rng = np.random.default_rng(self.seed)
        gp, n = gen.generalized_petersen, self.PETERSEN_N
        pairs = [self._graphs("named", 20, gp(10, 2), gp(10, 3))]
        for _ in range(2):
            k1, k2 = gen.petersen_ks(n, rng)
            pairs.append(self._graphs("petersen", 2 * n, gp(n, k1), gp(n, k2)))
        pairs += [self._pair(KINDS[j % 2], n, gen.small_graph(n, rng), rng)
                  for j, n in enumerate(self.SIZES)]
        return [dict(pair, enc="gn") for pair in pairs]

    def run(self, item: dict) -> dict:
        g1, g2, ref = item["g1"], item["g2"], self.hd.refine
        self.captured = []
        spd = self._verdict(g1, g2, ref.SpdEncoding())
        newman = self._verdict(g1, g2, ref.HdseEncoding(levels=1, algo="newman"))
        return {"sig": ("gn", spd, newman), "partitions": self.captured}

    def capture(self, fn):
        """Wrapper for ``coarsen.girvan_newman`` keeping (graph, partition)."""
        def capturing(*args, **kwargs):
            part = fn(*args, **kwargs)
            self.captured.append((args[0] if args else kwargs["g"], part))
            return part
        return capturing

    def _partitions(self, item: dict, captured: list) -> list:
        """Captured GN partitions of the two base graphs (or recomputed)."""
        found = []
        for g, edges in zip((item["g1"], item["g2"]), item["edges"]):
            hits = [p for cg, p in captured if cg is g]
            if not hits:
                hits = [self.hd.coarsen.build_hierarchy(g, "newman", 1).maps[0]]
            found.extend((item["n"], edges, p) for p in hits)
        return found

    def check(self, item: dict, out: dict) -> str | None:
        _, spd, newman = out["sig"]
        if item["kind"] == "twin" and spd:
            return "spd separated an isomorphic twin"
        if item["kind"] == "named" and (spd or not newman):
            return (f"dodecahedron/Desargues: spd={spd} hdse={newman}, "
                    "expected spd=False hdse=True")
        for n, edges, part in self._partitions(item, out["partitions"]):
            assign = np.asarray(part.assign)
            k = part.num_clusters
            if len(assign) != n or not np.array_equal(np.unique(assign),
                                                      np.arange(k)):
                return "Girvan-Newman partition is not surjective"
            q = oracle_modularity(n, edges, assign)
            q_cc = oracle_modularity(n, edges, components(n, edges))
            if not q >= q_cc - 1e-12:
                return (f"Girvan-Newman modularity {q:.6f} below its "
                        f"components partition {q_cc:.6f}")
        return None


class Train:
    """demo.train_demo for none/spd/hdse at one demo seed.

    The config is the default DemoConfig with ``EPOCHS`` epochs instead of
    300. Every epoch does the same batched forward/backward work, so fewer
    epochs keep the mix of the default run while a call is short enough to
    be repeated in every run. ``none`` bypasses the bias MLP, so it is the
    control for bias-path changes. Repeated (encoding, seed) calls must give
    the same accuracies and best epoch in every pass.
    """

    name = "train"
    EPOCHS = 40

    def __init__(self, hd, seed: int):
        self.hd, self.seed = hd, seed
        self.cfg = hd.demo.DemoConfig(epochs=self.EPOCHS)

    def inputs(self) -> list[dict]:
        return [{"enc": enc, "demo_seed": self.seed} for enc in ENCODINGS]

    def run(self, item: dict):
        return self.hd.demo.train_demo(item["enc"], item["demo_seed"], self.cfg)

    def check(self, item: dict, out) -> str | None:
        losses = [m[1] for m in out.metrics]
        if not losses or not all(math.isfinite(x) for x in losses):
            return "non-finite training loss"
        accs = (out.train_accuracy, out.val_accuracy, out.test_accuracy)
        if not all(0.0 <= a <= 1.0 for a in accs):
            return f"accuracy outside [0, 1]: {accs}"
        return None

    def signature(self, out):
        return (out.test_accuracy, out.val_accuracy, out.best_epoch)

    def describe(self, items, sigs) -> dict:
        return {"test_accuracy": [[it["enc"], it["demo_seed"], s[0]]
                                  for it, s in zip(items, sigs) if s]}


WORKLOADS = {w.name: w for w in (Infer, Train, Gdwl, GdwlGn)}
