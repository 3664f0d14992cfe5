#!/usr/bin/env python3
"""End-to-end surrogate experiment at full desk scale.

Generates the 5,000-row synthetic dataset, trains the forecasting
network for both tasks, benchmarks the regression model against the
classical baselines, and produces the Shapley feature ranking, leaving
all artifacts under --out-dir. Acceptance criteria 2 and 3 run this
script and assert on its artifacts, so its training recipes are theirs.
"""

import argparse
import sys
import time
from pathlib import Path

from gridcast.cli import main as cli_main

# both heads train with Adam from lr 0.003, stop after 25 epochs without a
# better validation loss and cut the lr after 10
SCHEDULE = ["--lr", "0.003", "--patience", "25", "--lr-patience", "10"]
REG_FLAGS = ["--max-epochs", "60", *SCHEDULE]
CLS_FLAGS = ["--max-epochs", "40", *SCHEDULE]


def run(argv: list[str]) -> None:
    print("$ gridcast " + " ".join(argv), flush=True)
    t0 = time.time()
    code = cli_main(argv)
    print(f"  -> exit {code} in {time.time() - t0:.0f}s", flush=True)
    if code != 0:
        sys.exit(code)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="surrogate_out")
    parser.add_argument("--rows", type=int, default=5000)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv = out / "synthetic.csv"

    run(["synth", "--rows", str(args.rows), "--seed", str(args.seed),
         "--out", str(csv)])
    run(["train", "--csv", str(csv), "--task", "regression",
         "--seed", str(args.seed), "--out-dir", str(out / "regression"),
         *REG_FLAGS])
    run(["train", "--csv", str(csv), "--task", "classification",
         "--seed", str(args.seed), "--out-dir", str(out / "classification"),
         *CLS_FLAGS])
    run(["compare", "--csv", str(csv), "--seed", str(args.seed),
         "--model", str(out / "regression" / "model.json"),
         "--out-dir", str(out / "comparison")])
    run(["explain", "--model", str(out / "regression" / "model.json"),
         "--csv", str(csv), "--seed", str(args.seed),
         "--out-dir", str(out / "attribution"), "--windows", "100",
         "--perms", "30"])
    run(["predict", "--model", str(out / "regression" / "model.json"),
         "--csv", str(csv), "--split", "test", "--seed", str(args.seed),
         "--out-dir", str(out / "predictions")])
    print(f"all artifacts under {out}")


if __name__ == "__main__":
    main()
