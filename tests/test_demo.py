import numpy as np
import pytest

from hdse.demo import (FEATURE_DIM, NODES_PER_BLOCK, TRAIN_FRAC, DemoConfig,
                       make_dataset, metrics_to_csv, train_demo,
                       run_all_encodings)

QUICK = DemoConfig(num_graphs=4, epochs=20, eval_every=5)


def test_dataset_shapes_and_split():
    cfg = DemoConfig(num_graphs=3)
    graphs, x, labels, masks = make_dataset(cfg, seed=0)
    n = 2 * NODES_PER_BLOCK
    assert [g.num_nodes for g in graphs] == [n] * 3
    assert x.shape == (3, n, FEATURE_DIM)
    assert np.array_equal(labels, [g.node_labels for g in graphs])
    # every node is in exactly one split
    splits = np.stack([masks["train"], masks["val"], masks["test"]])
    assert splits.shape == (3, 3, n) and splits.dtype == bool
    assert np.all(splits.sum(axis=0) == 1)
    assert np.all(masks["train"].sum(axis=1) == round(TRAIN_FRAC * n))


def test_train_demo_runs_and_bounds():
    for enc in ("none", "spd", "hdse"):
        r = train_demo(enc, seed=0, cfg=QUICK)
        assert 0.0 <= r.test_accuracy <= 1.0
        assert 0.0 <= r.train_accuracy <= 1.0
        assert r.metrics


def test_deterministic_per_seed():
    a = train_demo("hdse", seed=3, cfg=QUICK)
    b = train_demo("hdse", seed=3, cfg=QUICK)
    assert a.test_accuracy == b.test_accuracy
    assert a.metrics == b.metrics


def test_shuffled_labels_near_chance():
    # destroy the community signal; accuracy must sit near 1/num_classes
    cfg = DemoConfig(num_graphs=10, epochs=60, eval_every=10)
    data = make_dataset(cfg, seed=1)
    rng = np.random.default_rng(0)
    for labels in data[2]:  # each graph's row of the labels array
        rng.shuffle(labels)
    # train on the shuffled copy via the public entry point but with the
    # labels replaced: rebuild through a tiny wrapper
    import hdse.demo as demo_mod
    orig = demo_mod.make_dataset
    demo_mod.make_dataset = lambda c, s: data
    try:
        r = train_demo("hdse", seed=1, cfg=cfg)
    finally:
        demo_mod.make_dataset = orig
    assert abs(r.test_accuracy - 0.5) <= 0.1


def test_metrics_csv_shape():
    results, means = run_all_encodings([0, 1], QUICK)
    csv = metrics_to_csv(results, means)
    lines = csv.strip().splitlines()
    assert lines[0] == "encoding,seed0,seed1,mean"
    assert len(lines) == 4
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 4
        for cell in cells[1:]:
            assert 0.0 <= float(cell) <= 1.0


@pytest.mark.parametrize("kwargs", [
    {"epochs": 0}, {"epochs": -1}, {"lr": 0.0}, {"lr": -1.0},
    {"lr": float("inf")}, {"lr": float("nan")}])
def test_invalid_config_rejected(kwargs):
    with pytest.raises(ValueError, match="need epochs >= 1"):
        train_demo("none", 0, DemoConfig(**kwargs))


@pytest.mark.parametrize("kwargs", [
    {"num_graphs": 0}, {"num_graphs": -1}, {"eval_every": 0},
    {"eval_every": -5}])
def test_invalid_graph_count_or_eval_interval_rejected(kwargs):
    with pytest.raises(ValueError, match="need num_graphs >= 1"):
        DemoConfig(**kwargs)


@pytest.mark.parametrize("seeds", [[], range(0), [0, -1]])
def test_invalid_seeds_rejected_before_training(seeds, monkeypatch):
    import hdse.demo as demo_mod
    monkeypatch.setattr(demo_mod, "train_demo", None)  # never reached
    with pytest.raises(ValueError, match="at least one seed"):
        run_all_encodings(seeds, QUICK)


@pytest.mark.parametrize("encoding,keyed", [("none", 0), ("spd", 1),
                                            ("hdse", 1)])
def test_codes_keyed_once_per_run(encoding, keyed, monkeypatch):
    # the codes are numbered once, but bias_matrix still sees every forward
    import hdse.attention as attention_mod
    import hdse.demo as demo_mod
    calls = {"code_keys": 0, "bias_matrix": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    keys = counted("code_keys", attention_mod.code_keys)
    monkeypatch.setattr(attention_mod, "code_keys", keys)
    monkeypatch.setattr(demo_mod, "code_keys", keys)
    monkeypatch.setattr(attention_mod, "bias_matrix",
                        counted("bias_matrix", attention_mod.bias_matrix))
    cfg = DemoConfig(num_graphs=2, epochs=5, eval_every=2)
    train_demo(encoding, 0, cfg)
    # one forward pass per epoch; the result is read from a metrics row
    assert calls == {"code_keys": keyed, "bias_matrix": keyed * cfg.epochs}


@pytest.mark.parametrize("encoding", ["none", "spd", "hdse"])
def test_reported_epoch_is_a_metrics_row(encoding):
    r = train_demo(encoding, 0, QUICK)
    assert (r.best_epoch, r.train_accuracy, r.test_accuracy) in [
        (epoch, train, test) for epoch, _, train, test in r.metrics]


@pytest.mark.parametrize("encoding,seed", [("none", 2), ("spd", 4),
                                           ("hdse", 2)])
def test_reported_row_is_the_model_at_the_best_epoch(encoding, seed):
    # a run cut off right after the best epoch ends on that epoch's model,
    # so its last row must be the one reported
    cfg = DemoConfig(num_graphs=4, epochs=20, eval_every=2)
    r = train_demo(encoding, seed, cfg)
    assert 0 < r.best_epoch < cfg.epochs - 1  # seeds where the cut is real
    cut = train_demo(encoding, seed, DemoConfig(
        num_graphs=cfg.num_graphs, epochs=r.best_epoch + 1,
        eval_every=cfg.eval_every))
    row = next(m for m in r.metrics if m[0] == r.best_epoch)
    assert cut.metrics[-1] == row
    assert (row[2], row[3]) == (r.train_accuracy, r.test_accuracy)


def test_seed0_results_pinned():
    # the benchmark's train item; a rounding change in the training loop
    # that moves an accuracy or the best epoch fails here
    cfg = DemoConfig(epochs=40)
    want = {"none": (53 / 120, 56 / 120, 20),
            "spd": (61 / 120, 52 / 120, 0),
            "hdse": (56 / 120, 66 / 120, 0)}
    for encoding, pinned in want.items():
        r = train_demo(encoding, 0, cfg)
        assert (r.test_accuracy, r.val_accuracy, r.best_epoch) == pinned
