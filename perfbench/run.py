"""Benchmark entry point: run one workload and print its metrics.

    python3 perfbench/run.py --workload gf4096-paper --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from ``src/``
there and nowhere else.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The line before it carries the run metadata, the outcome
classes and the outcome digest.  Exit status 0 means every output passed
the correctness gate, 1 means some did not, 2 means the run could not
start (no library, bad arguments).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def load_library():
    """Import skewrs from the checkout's src/ and refuse any other copy."""
    if not os.path.isdir(os.path.join(SRC, "skewrs")):
        raise ImportError(f"no skewrs package under {SRC}")
    sys.path.insert(0, SRC)
    import skewrs
    if not os.path.abspath(skewrs.__file__).startswith(SRC + os.sep):
        raise ImportError(f"skewrs imported from {skewrs.__file__}, not {SRC}")
    return skewrs


def git_revision():
    """HEAD's commit id read from .git, or None outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    """sha256 over the library's source files, which identifies the code
    under test where no git revision is available."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(SRC, "skewrs"))):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", type=float, default=30.0,
                   help="sizes the trial list: the workload's nominal rate times this")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Terminated(BaseException):
    """SIGTERM, raised past the benchmark's exception handlers so that the
    run unwinds and removes its temporary directory."""


def _raise_terminated(signum, frame):
    raise Terminated()


def main(argv=None):
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _raise_terminated)
    try:
        load_library()
    except ImportError as exc:
        print(f"perfbench: cannot import the library: {exc}", file=sys.stderr)
        return 2
    import runner
    from workloads import WORKLOADS
    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    target = wl.rate * args.seconds

    try:
        with runner.Bench(wl, args.seed, ROOT) as bench:
            if args.trace:
                values, gate, info = runner.run_traced(bench, target)
                units = runner.PER_LAYER_UNITS
            else:
                values, gate, info = runner.run_untraced(bench, target)
                units = runner.END_TO_END_UNITS
            stderr_lines = bench.session.stderr_lines
    except Terminated:
        print("perfbench: terminated", file=sys.stderr)
        return 128 + signal.SIGTERM

    meta = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(), "source_sha256": source_digest(),
        **info,
        "outcomes_by_weight": gate.class_table(),
        "outcome_digest": gate.digest,
        "failures": [f"trial {i}: {r}" for i, r in gate.failures],
        "cli_stderr": stderr_lines,
    }
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
