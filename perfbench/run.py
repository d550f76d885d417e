"""Benchmark of the hdse library: one closed-loop client in one process.

Run from the repository root:

    python3 perfbench/run.py --workload infer --seed 0 --seconds 30 --trace 0

Workloads: infer, train, gdwl (see perfbench/README.md). With ``--trace 0``
passes over the seeded inputs run for ``--seconds`` seconds, with a fixed
reference kernel between items, and the end-to-end metrics of BENCHMARK.json
are printed. With ``--trace 1`` the inputs run once traced, once untraced
and once traced again, and the per-layer metrics are printed. Every item's
output is checked outside the timed region; the last stdout line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. Spans and a detailed record (environment, per-item results,
share table) go to perfbench/out/.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy loads, identically on every commit.
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import layers  # noqa: E402
from reference import NOMINAL_S, Reference  # noqa: E402
from spans import Tracer, patch, unpatch  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 9
MAX_PROBLEMS = 20


def load_library():
    """Import hdse from this checkout's src/, never from anywhere else."""
    init = SRC / "hdse" / "__init__.py"
    if not init.is_file():
        sys.exit(f"error: {init} not found; run from the repository root")
    sys.path.insert(0, str(SRC))
    import hdse
    if Path(hdse.__file__).resolve() != init.resolve():
        sys.exit(f"error: imported hdse from {hdse.__file__}, not {init}")
    return hdse


def setup_seconds(ref: Reference) -> tuple[float, list[float]]:
    """Time for a fresh interpreter to import hdse, at the nominal host speed.

    Each import is timed between two reference-kernel calls and scaled by
    ``NOMINAL_S`` over their mean, like the item costs, so that the host's
    drift does not move the figure. Returns the median of the scaled times
    and the wall-clock times.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    scaled, wall = [], []
    before = ref.seconds()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import hdse"], cwd=ROOT, env=env,
                       check=True, stdout=subprocess.DEVNULL)
        wall.append(time.perf_counter() - t0)
        after = ref.seconds()
        scaled.append(wall[-1] * NOMINAL_S / ((before + after) / 2))
        before = after
    return statistics.median(scaled), wall


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"git_sha": git_sha(), "src_sha256": digest.hexdigest(),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "blas_threads": BLAS_THREADS}


class Tally:
    """Per-attempt item index, time and output signature; failures listed."""

    def __init__(self):
        self.index: list[int] = []
        self.item_s: list = []
        self.sigs: list = []
        self.bad: set[int] = set()
        self.timed = 0.0
        self.problems: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.item_s)

    @property
    def failed(self) -> int:
        return len(self.bad)

    def add(self, i: int, dt: float, sig, problem: str | None) -> None:
        self.timed += dt
        self.index.append(i)
        self.item_s.append(dt)
        self.sigs.append(sig)
        if problem:
            self.fail(self.attempted - 1, f"item {i}: {problem}")

    def fail(self, attempt: int, problem: str) -> None:
        self.bad.add(attempt)
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(problem)


def run_item(wl, i: int, item, tally: Tally, tracer=None) -> None:
    """Time one item, then check it with tracing paused."""
    gc.collect()  # garbage of earlier items is not charged to this one
    t0 = time.perf_counter()
    try:
        out = wl.run(item)
    except Exception as e:  # an item that raises counts as failed
        tally.add(i, time.perf_counter() - t0, None, f"raised {e!r}")
        return
    dt = time.perf_counter() - t0
    if tracer is not None:
        tracer.paused = True
    try:
        problem, sig = wl.check(item, out), wl.signature(out)
    except Exception as e:  # a check that raises fails the item
        problem, sig = f"check raised {e!r}", None
    finally:
        if tracer is not None:
            tracer.paused = False
    tally.add(i, dt, sig, problem)


def compare_passes(tally: Tally) -> None:
    """Fail every attempt whose output differs from its item's first pass."""
    first: dict[int, object] = {}
    for a, (i, sig) in enumerate(zip(tally.index, tally.sigs)):
        if a in tally.bad:
            continue
        first.setdefault(i, sig)
        if sig != first[i]:
            tally.fail(a, f"item {i}: output differs between passes")


def timed_run(wl, seconds: int, record: dict) -> tuple[dict, Tally]:
    """Whole passes over the inputs within ``seconds`` of wall time.

    At least one pass runs. Every item has as many attempts as the others,
    so the percentiles of the pooled attempts do not depend on how many
    passes fit.

    The reference kernel runs before the first item and after every item;
    an attempt's cost is its time divided by the mean of the two kernel
    times around it, and an item's cost is the median over its passes.
    """
    items, tally, ref, passes = wl.inputs(), Tally(), Reference(), 0
    # Inputs are listed smallest first. Running the largest once, untimed,
    # grows the allocator to the run's working set before the first timed
    # pass; if it fails, the same item fails again, counted, in the passes.
    with contextlib.suppress(Exception):
        wl.run(items[-1])
    ref_s: list[float] = []
    before = ref.seconds()
    start = time.perf_counter()
    elapsed = 0.0
    # whole passes, while one more (at the mean pass time) fits in ``seconds``
    while not passes or elapsed * (passes + 1) / passes <= seconds:
        for i, item in enumerate(items):
            run_item(wl, i, item, tally)
            after = ref.seconds()
            ref_s.append((before + after) / 2)
            before = after
        passes += 1
        elapsed = time.perf_counter() - start
    compare_passes(tally)
    failed = {tally.index[a] for a in tally.bad}
    per_item: dict[int, list[float]] = {}
    secs: dict[int, list[float]] = {}
    for i, dt, r in zip(tally.index, tally.item_s, ref_s):
        if i not in failed:
            per_item.setdefault(i, []).append(dt / r)
            secs.setdefault(i, []).append(dt)
    costs = [c for cs in per_item.values() for c in cs]
    item_cost = {i: statistics.median(cs) for i, cs in per_item.items()}
    item_s = {i: statistics.median(ts) for i, ts in secs.items()}
    total = sum(item_cost.values())
    metrics = {"items_per_ref": len(item_cost) / total if total else 0.0}
    # Per-input figures: printed and recorded, but not end-to-end metrics,
    # because each picks out one or two random graphs and so moves by 0.1-0.2
    # of its median from seed to seed.
    p50, p90 = np.percentile(costs, [50, 90]) if costs else (0.0, 0.0)
    not_gated = {"item_p50_ref": float(p50), "item_p90_ref": float(p90),
                 "items_per_s": len(item_s) / sum(item_s.values())
                 if item_s else 0.0,
                 "ref_p50_s": statistics.median(ref_s)}
    record.update(passes=passes, items=len(items), timed_s=tally.timed,
                  attempts=len(costs),
                  item_s=tally.item_s, ref_s=ref_s, item_cost=item_cost,
                  not_gated=not_gated,
                  **wl.describe(items, tally.sigs[:len(items)]))
    if wl.name == "train":
        record["run_s"] = {items[i]["enc"]: t for i, t in item_s.items()}
    return metrics, tally


def traced_run(hd, wl, record: dict) -> tuple[dict, Tally, bool]:
    """The inputs traced, untraced, traced again; counts must repeat exactly.

    The untraced pass sits between the traced ones so that drift in machine
    speed cancels out of the tracing overhead.
    """
    items = wl.inputs()
    tracer = Tracer(hd, layers.TARGETS)
    tally = Tally()

    def one_pass(traced: bool) -> float:
        t0 = tally.timed
        for i, item in enumerate(items):
            tracer.item = i
            run_item(wl, i, item, tally, tracer if traced else None)
        return tally.timed - t0

    def traced_pass():
        first = tally.attempted
        with tracer:
            tracer.reset()
            dt = one_pass(True)
        sigs = tally.sigs[first:]
        flips = wl.twin_flips(items, sigs) if hasattr(wl, "twin_flips") else 0
        return (dt, sigs, layers.per_layer(tracer, dt, flips),
                layers.shares(tracer, dt), tracer.dump())

    ta, sigs_a, ma, sa, spans_a = traced_pass()
    untraced_s = one_pass(False)
    tb, _, mb, _, _ = traced_pass()

    compare_passes(tally)
    mismatched = [k for k in layers.EXACT if ma[k] != mb[k]]
    if mismatched:
        tally.problems.append(f"counts differ between traced passes: {mismatched}")

    metrics = {k: (ma[k] + mb[k]) / 2 if k.endswith("_s") or ".self_s" in k
               else ma[k] for k in ma}
    metrics["trace_overhead"] = (ta + tb) / 2 / untraced_s if untraced_s else 0.0
    untraced = tally.item_s[len(items):2 * len(items)]
    run_s = {it["enc"]: t for it, t in zip(items, untraced)} \
        if wl.name == "train" else {}
    for enc in layers.ENCODINGS:
        metrics[f"demo.run_s.{enc}"] = run_s.get(enc, 0.0)
    record.update(items=len(items), untraced_s=untraced_s,
                  traced_s=[ta, tb], shares=sa,
                  exact_mismatch=mismatched, missing_names=tracer.missing,
                  **wl.describe(items, sigs_a))
    (OUT / f"spans-{wl.name}-seed{record['seed']}.json").write_text(
        json.dumps(spans_a))
    return metrics, tally, not mismatched


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    hd = load_library()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = WORKLOADS[args.workload](hd, args.seed)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "env": environment()}
    OUT.mkdir(parents=True, exist_ok=True)
    undo = patch(hd, "coarsen.girvan_newman", wl.capture) \
        if hasattr(wl, "capture") else None
    try:
        if args.trace:
            metrics, tally, consistent = traced_run(hd, wl, record)
            names = spec["per_layer"]
        else:
            setup, record["setup_wall_s"] = setup_seconds(Reference())
            metrics, tally = timed_run(wl, args.seconds, record)
            consistent = True
            metrics["setup_s"] = setup
            metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                                      .ru_maxrss / 1024)
            names = spec["end_to_end"]
    finally:
        if undo:
            unpatch(undo)
    record.update(problems=tally.problems, metrics=metrics)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))

    for problem in tally.problems:
        print(f"FAILED {problem}")
    for name, value in record.get("not_gated", {}).items():
        print(f"(not a benchmark metric) {name} = {value:.6g}")
    if args.trace:
        print("self-time share of traced item time:")
        for name, share in record["shares"].items():
            print(f"  {share:7.2%}  {name}")
    out = {}
    for m in names:
        out[m["name"]] = {"value": float(metrics[m["name"]]), "unit": m["unit"]}
        print(f"{m['name']} = {metrics[m['name']]:.6g} {m['unit']}")
    print(json.dumps({"correct": consistent and tally.failed == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
