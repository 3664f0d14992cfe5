"""gridcast benchmark launcher.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The last stdout line is the
result object; the line before it holds the run facts. ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics of
a separate traced run. See perfbench/README.md.
"""

import os

# Fixed here, before numpy loads, for both sides of every comparison: with
# OpenBLAS's default of one thread per core, identical training epochs
# varied by a factor of 1.7.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Seeds 0-39 were used to tune the benchmark. This one was not:
# re-check a claimed gain on it before accepting the claim.
HELD_OUT_SEED = 7919


def git_commit(root: Path) -> str | None:
    """HEAD of ``root``'s own repository, read without starting git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest(package: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(package.rglob("*.py")):
        digest.update(path.relative_to(package).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def run_facts(args, profile) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seed_held_out": args.seed == HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "profile": profile.__dict__,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(ROOT),
        "src_sha256": source_digest(SRC / "gridcast"),
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gridcast" / "__init__.py").is_file():
        print(f"error: no gridcast sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gridcast
    import workloads

    if Path(gridcast.__file__).resolve().parent != (SRC / "gridcast").resolve():
        print(f"error: imported gridcast from {gridcast.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    facts = run_facts(args, workloads.FULL)
    result, timings = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))
    (workloads.WORK_ROOT / args.workload / "facts.json").write_text(
        json.dumps({"facts": facts, "timings": timings, "result": result}, indent=1) + "\n",
        encoding="utf-8")
    print(json.dumps({"facts": facts}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
