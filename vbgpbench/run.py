"""Wire-to-wire vBGP benchmark: full-table ingest, churn fan-out and
data-plane forwarding through one real PoP.

Run from the repository root::

    python3 vbgpbench/run.py --workload churn_fanout --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it give the environment and a readable table.  The program
is imported from this checkout's ``src`` and nowhere else.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# String hashing is randomized per process by default, and the resulting
# dict layouts moved the set-up time by up to 50% from one process to the
# next.  Every run pins the same hash seed instead.
HASH_SEED = "0"


def _pin_hash_seed() -> None:
    """Re-execute this process with ``PYTHONHASHSEED`` pinned."""
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, *sys.argv], env)


def _prepare_imports() -> None:
    """Put this checkout's ``src`` first on the path; refuse without it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"error: no program source at {SRC / 'repro'}")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"error: imported repro from {repro.__file__}, not {SRC}")


def main(argv: Optional[list[str]] = None) -> int:
    _prepare_imports()
    from vbgpbench import runs

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=runs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", default=None,
                        help="with --trace 1, write every span to this file")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        env = runs.environment(args.seed)
    except runs.RefusedRun as error:
        sys.exit(f"error: {error}")
    workload = runs.WORKLOADS[args.workload]
    started = time.perf_counter()
    if args.trace:
        result = runs.run_traced(workload, args.seed, args.spans_out)
    else:
        result = runs.run_untraced(workload, args.seed, args.seconds)
    metrics, attempted, mismatches, samples = result
    env["run_s"] = time.perf_counter() - started
    print("env " + json.dumps(env, sort_keys=True))
    print("samples " + json.dumps(samples, sort_keys=True))
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}")
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:>16.6g} {metric['unit']}")
    for missing in samples.get("missing_hooks", ()):
        print(f"  missing hook {missing}")
    for example in mismatches.examples:
        print(f"  MISMATCH {example}")
    correct = mismatches.count == 0
    print(f"correct {correct}: {mismatches.count} failed of "
          f"{attempted} attempted")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": mismatches.count, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    _pin_hash_seed()
    sys.exit(main())
