"""Smoke check of the benchmark itself, at tiny trial counts.

    python3 perfbench/selftest.py

Checks that every workload emits every metric named in BENCHMARK.json with
its unit, traced and untraced; that a run's outcome digest repeats for the
same seed; that the correctness gate trips on deliberately falsified
outcomes; and that the benchmark refuses to run, printing no result, where
the library's sources are absent.  Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SMOKE_SECONDS = 0.01    # rounds up to each workload's shortest list, one weight cycle per code
TIMEOUT_S = 170


def run_bench(cwd, workload, seed, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SMOKE_SECONDS), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def last_json(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["meta"]


def check_metrics(spec, workload, trace, proc):
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
    result, meta = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0, meta["failures"]
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    assert set(got) == set(wanted), set(got) ^ set(wanted)
    for name, unit in wanted.items():
        entry = got[name]
        assert entry["unit"] == unit, (name, entry["unit"], unit)
        value = entry["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), (name, value)
        if not trace:
            assert value > 0, (name, value)
    return meta


def check_workloads(spec):
    names = [w["name"] for w in spec["workloads"]]
    for workload in names:
        meta0 = check_metrics(spec, workload, 0, run_bench(ROOT, workload, 7, 0))
        check_metrics(spec, workload, 1, run_bench(ROOT, workload, 7, 1))
        print(f"PASS {workload}: every metric emitted with its unit, traced and untraced")
        if workload == names[0]:
            again = check_metrics(spec, workload, 0, run_bench(ROOT, workload, 7, 0))
            assert again["outcome_digest"] == meta0["outcome_digest"]
            assert again["outcomes_by_weight"] == meta0["outcomes_by_weight"]
            print(f"PASS {workload}: outcome digest repeats for the same seed")


def check_gate():
    """Falsify real outcomes and require the gate to count each."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    from dataclasses import replace
    from skewrs import SkewPolynomial
    from gate import Gate
    from runner import inprocess_trial
    from workloads import WORKLOADS, build_codes, draw_trial

    wl = WORKLOADS["gf4096-paper"]
    codes = build_codes(wl)
    t = codes[0][1].t
    trials = [draw_trial(wl.name, 3, i, codes).materialize() for i in range(t + 2)]
    low = next(tr for tr in trials if tr.weight == t)
    high = next(tr for tr in trials if tr.weight == t + 1)
    res = inprocess_trial(low)
    assert Gate().judge(low, res.outcome, res.sent, res.received) is None

    ctx = low.ctx
    bumped = SkewPolynomial(ctx, [c + ctx.one for c in low.msg.coeffs] or [ctx.one])
    other_cw = list(res.outcome.codeword)
    other_cw[0] = other_cw[0] + ctx.one
    falsified = {
        "wrong message": (low, replace(res.outcome, message=bumped)),
        "weight <= t reported failed": (low, replace(res.outcome, ok=False)),
        "wrong codeword": (low, replace(res.outcome, codeword=other_cw)),
        "wrong positions": (low, replace(res.outcome, positions=res.outcome.positions[1:])),
    }
    res_high = inprocess_trial(high)
    falsified["weight > t ok with a non-codeword"] = (high, replace(res.outcome, codeword=other_cw))
    for label, (trial, outcome) in falsified.items():
        gate = Gate()
        received = res.received if trial is low else res_high.received
        sent = res.sent if trial is low else res_high.sent
        assert gate.judge(trial, outcome, sent, received) is not None, label
        assert gate.failed == 1, label
    print(f"PASS gate trips on {len(falsified)} falsified outcomes ({', '.join(falsified)})")


def check_bare_directory(spec):
    """With only BENCHMARK.json and the benchmark's files, a run must fail
    without printing a result."""
    with tempfile.TemporaryDirectory(prefix=".perfbench-bare-", dir=ROOT) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, spec["workloads"][0]["name"], 1, 0)
        assert proc.returncode != 0, proc.stdout
        assert '"metrics"' not in proc.stdout, proc.stdout
    print(f"PASS bare directory: exit {proc.returncode}, no result printed")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check_gate()
    check_bare_directory(spec)
    check_workloads(spec)
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
