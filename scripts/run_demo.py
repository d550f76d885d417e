#!/usr/bin/env python3
"""Train the community node-classification demo for every encoding.

Compares test accuracy of a one-layer biased-attention classifier with no
distance bias, a shortest-path bias, and the hierarchy distance bias, over
several seeds, and writes the per-seed metrics as CSV.
"""

import argparse
import time

from hdse.demo import DemoConfig, metrics_to_csv, run_all_encodings


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--epochs", type=int, default=DemoConfig.epochs)
    ap.add_argument("--lr", type=float, default=DemoConfig.lr)
    ap.add_argument("--output", "-o", default="demo_metrics.csv")
    args = ap.parse_args()

    start = time.time()
    try:
        results, means = run_all_encodings(
            range(args.seeds), DemoConfig(epochs=args.epochs, lr=args.lr))
    except ValueError as e:
        ap.error(str(e))
    with open(args.output, "w") as f:
        f.write(metrics_to_csv(results, means))
    for enc, runs in results.items():
        for r in runs:
            print(f"{enc:<5} seed={r.seed} train={r.train_accuracy:.3f} "
                  f"val={r.val_accuracy:.3f} test={r.test_accuracy:.3f} "
                  f"best_epoch={r.best_epoch}")
    print(f"means: none={means['none']:.4f} spd={means['spd']:.4f} "
          f"hdse={means['hdse']:.4f}  ({time.time() - start:.1f}s)")
    print(f"metrics written to {args.output}")


if __name__ == "__main__":
    main()
