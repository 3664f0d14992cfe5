#!/usr/bin/env python3
"""Print the SHA-256 of every artifact of a fixed set of gridcast commands.

Writes a 2,000-row ``synth --seed 1`` CSV and runs, on it: ``train``
with the regression and the classification head, ``compare`` with and
without ``--model`` (10 trees each) and with ``--model`` and 100 trees,
``predict --split all`` and ``--split test``, and ``explain`` both
sampled and ``--exact --windows 1``; every training run stops after at
most 30 epochs. The 100-tree ``compare`` grows 50-tree shares on a
2-CPU host. Every command writes to its own folder of the work
directory and is given paths relative to it, so the artifacts do not
depend on where that directory is. Prints ``sha256  path`` for every
file written, sorted by path, on stdout; the commands' own output goes
to stderr. Two source trees that give the same bytes print the same
lines:

    PYTHONPATH=src python3 scripts/artifact_digests.py > change.txt
    PYTHONPATH=<other checkout>/src python3 scripts/artifact_digests.py > parent.txt
    diff parent.txt change.txt

Exit status: 0, or the exit code of the first command that failed.
"""

import argparse
import contextlib
import hashlib
import os
import shutil
import sys
from pathlib import Path

from gridcast.cli import main as cli_main

CSV = "synth.csv"
MODEL = "train-regression/model.json"
EPOCHS = ["--max-epochs", "30"]
COMMANDS = [
    ["synth", "--rows", "2000", "--seed", "1", "--out", CSV],
    ["train", "--csv", CSV, "--task", "regression", *EPOCHS, "--out-dir", "train-regression"],
    ["train", "--csv", CSV, "--task", "classification", *EPOCHS,
     "--out-dir", "train-classification"],
    ["compare", "--csv", CSV, "--model", MODEL, "--trees", "10", "--out-dir", "compare-model"],
    ["compare", "--csv", CSV, "--trees", "10", *EPOCHS, "--out-dir", "compare-trained"],
    ["compare", "--csv", CSV, "--model", MODEL, "--trees", "100", "--out-dir", "compare-model-100"],
    ["predict", "--model", MODEL, "--csv", CSV, "--split", "all", "--out-dir", "predict-all"],
    ["predict", "--model", MODEL, "--csv", CSV, "--split", "test", "--out-dir", "predict-test"],
    ["explain", "--model", MODEL, "--csv", CSV, "--out-dir", "explain-sampled"],
    ["explain", "--model", MODEL, "--csv", CSV, "--exact", "--windows", "1",
     "--out-dir", "explain-exact"],
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--work-dir", default="artifact_digests_out",
                        help="emptied, then filled with the commands' outputs")
    work = Path(parser.parse_args().work_dir)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    os.chdir(work)
    for argv in COMMANDS:
        print("$ gridcast " + " ".join(argv), file=sys.stderr, flush=True)
        with contextlib.redirect_stdout(sys.stderr):
            code = cli_main(argv)
        if code != 0:
            return code
    for path in sorted(p for p in Path(".").rglob("*") if p.is_file()):
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
