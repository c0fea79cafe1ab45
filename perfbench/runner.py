"""Run one workload: set-up, the timed closed loop, and the traced run.

One client sends the next request only after the previous one returns
(closed loop, one client, one process).  Each trial draws a message and an
error, times ``encode`` and then ``decode`` on the corrupted word (or the
``skewrs encode`` and ``skewrs decode`` requests on the CLI workload), and
passes the outcome to the correctness gate.  Input generation and the gate
run between trials and are not timed.
"""

from __future__ import annotations

import io
import math
import os
import random
import resource
import statistics
import sys
import tempfile
from array import array
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from time import perf_counter

from skewrs import SkewPolynomial, cli, decode, encode, parse_element, parse_poly

from gate import Gate, Outcome
from tracing import STAGES, Tracer, field_microbench, per_op_ns, replay_decode, same_outcome
from workloads import build_codes, draw_trial

END_TO_END_UNITS = {
    "trials_per_s": "1/s",
    "decode_ms.p50": "ms",
    "decode_ms.p90": "ms",
    "encode_ms.p50": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER_UNITS = {
    "fields.mul_per_decode": "count", "fields.inv_per_decode": "count",
    "fields.sigma_per_decode": "count", "fields.add_per_decode": "count",
    "fields.mul_ns": "ns", "fields.inv_ns": "ns", "fields.sigma_ns": "ns",
    "fields.context_ms": "ms",
    "skewpoly.mul.calls": "count", "skewpoly.mul_us": "us",
    "skewpoly.left_divmod.calls": "count", "skewpoly.left_divmod_us": "us",
    "skewpoly.lclm_ms": "ms", "skewpoly.twisted_shift_rows_us": "us",
    "linalg.eliminate.calls": "count", "linalg.eliminate_us": "us",
    "linalg.matmul_us": "us",
    "codes.is_normal_ms": "ms", "codes.generator_ms": "ms", "codes.eval_matrix_ms": "ms",
    **{f"pgz.{s}_us": "us" for s in STAGES},
    "pgz.branch.all_zero": "count", "pgz.branch.direct": "count",
    "pgz.branch.echelon": "count",
    "pgz.verify_share": "ratio", "pgz.echelon_share": "ratio",
    "pgz.stage_coverage": "ratio",
    "parsing.parse_poly_us": "us", "parsing.format_us": "us",
    "cli.load_bundle_ms": "ms", "cli.glue_ms": "ms",
    "cli.exit.0": "count", "cli.exit.1": "count", "cli.exit.2": "count",
    "trace.overhead": "ratio",
}


class TrialError(Exception):
    """A trial operation raised or the CLI refused it; ``ops`` operations
    count as failed."""

    def __init__(self, reason, ops):
        super().__init__(reason)
        self.ops = ops


@dataclass
class TrialResult:
    enc_s: float
    dec_s: float
    seg_s: float             # encode start to decode end
    outcome: Outcome
    sent: list
    received: list


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def code_percentile(by_code, q):
    """Geometric mean over the workload's codes of each code's nearest-rank
    percentile; the plain percentile when there is one code.  A workload
    whose codes alternate puts half its trials on each code, so a pooled
    median would sit on the edge between the two codes' latencies."""
    return math.exp(statistics.fmean(math.log(nearest_rank(v, q)) for v in by_code))


def host_probe_ns(iterations=20000):
    """ns per iteration of a fixed pure-Python loop: how fast the host ran
    at that moment, independent of the library, so that two sets of runs
    can be told apart by host speed as well as by code."""
    t0 = perf_counter()
    x = 0
    for i in range(iterations):
        x += i * i
    return (perf_counter() - t0) / iterations * 1e9


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# the two kinds of client
# ---------------------------------------------------------------------------

def inprocess_trial(trial):
    code = trial.code
    t0 = perf_counter()
    try:
        cw = encode(code, trial.msg)
    except Exception as exc:
        raise TrialError(f"encode raised {exc!r}", 2) from exc
    t1 = perf_counter()
    sent = cw.vector(code.n)
    received = [a + b for a, b in zip(sent, trial.err)]
    t2 = perf_counter()
    try:
        report = decode(code, received)
    except Exception as exc:
        raise TrialError(f"decode raised {exc!r}", 1) from exc
    t3 = perf_counter()
    return TrialResult(t1 - t0, t3 - t2, t3 - t0, Outcome.from_report(report),
                       sent, received)


class CliSession:
    """Files for in-process ``skewrs`` requests, in a temporary directory
    inside the checkout."""

    def __init__(self, root):
        self._tmp = tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=root)
        self.dir = self._tmp.name
        self.bundles = {}
        self.stderr_lines = []
        self.glue = []            # per traced decode request
        self.exits = {0: 0, 1: 0, 2: 0}   # of traced requests

    def close(self):
        self._tmp.cleanup()

    def path(self, name):
        return os.path.join(self.dir, name)

    def call(self, argv):
        """Run one request; returns (exit code, seconds).  A traceback out
        of ``main`` comes back as exit code -1."""
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            t0 = perf_counter()
            try:
                rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:
                print(f"{argv[0]} raised {exc!r}", file=sys.stderr)
                rc = -1
            dt = perf_counter() - t0
        if err.getvalue() and len(self.stderr_lines) < 10:
            self.stderr_lines.append(err.getvalue().strip())
        return rc, dt

    def build(self, spec):
        cfg = self.path(f"{spec.name}.cfg")
        if not os.path.exists(cfg):
            with open(cfg, "w") as fh:
                fh.write(spec.config)
        bundle = self.path(f"{spec.name}.bundle")
        rc, dt = self.call(["build", "--config", cfg, "--out", bundle])
        if rc != 0:
            raise RuntimeError(f"skewrs build exited {rc} for {spec.name}")
        self.bundles[spec.name] = bundle
        return dt


def cli_trial(session, trial, tracer=None):
    """One encode request and one decode request; with a tracer, also
    record exit codes and the decode request's glue time."""
    ctx, n = trial.ctx, trial.code.n
    bundle = session.bundles[trial.spec.name]
    msg_f, cw_f, rx_f, rep_f = (session.path(f) for f in ("msg", "cw", "rx", "report"))
    with open(msg_f, "w") as fh:
        fh.write(trial.msg_text() + "\n")
    err_text = trial.err_text()

    t0 = perf_counter()
    rc_e, enc_s = session.call(["encode", "--code", bundle, "--in", msg_f, "--out", cw_f])
    if tracer is not None:
        session.exits[rc_e] = session.exits.get(rc_e, 0) + 1
    if rc_e != 0:
        raise TrialError(f"skewrs encode exited {rc_e}", 2)
    with open(cw_f) as fh:
        cw_text = fh.read().strip()
    with open(rx_f, "w") as fh:
        fh.write(cw_text + (f" + {err_text}" if trial.weight else "") + "\n")
    before = _cli_spans(tracer)
    rc_d, dec_s = session.call(["decode", "--code", bundle, "--in", rx_f, "--out", rep_f])
    seg_s = perf_counter() - t0
    if tracer is not None:
        session.exits[rc_d] = session.exits.get(rc_d, 0) + 1
        session.glue.append(dec_s - (_cli_spans(tracer) - before))
    if rc_d not in (0, 1):
        raise TrialError(f"skewrs decode exited {rc_d}", 1)

    try:
        sent = parse_poly(ctx, cw_text).vector(n)
        with open(rep_f) as fh:
            outcome = parse_report(ctx, n, fh.read())
    except (KeyError, ValueError) as exc:
        raise TrialError(f"unreadable codeword or report: {exc!r}", 1) from exc
    received = [a + b for a, b in zip(sent, trial.err)]
    if outcome.ok != (rc_d == 0):
        raise TrialError(f"decode exit {rc_d} disagrees with status ok={outcome.ok}", 1)
    return TrialResult(enc_s, dec_s, seg_s, outcome, sent, received)


def _cli_spans(tracer):
    if tracer is None:
        return 0.0
    return sum(tracer.busy.get(k, 0.0)
               for k in ("cli.load_bundle", "cli.parse", "cli.decode", "cli.format"))


def parse_report(ctx, n, text):
    """Read the contract-fixed fields back from a ``skewrs decode`` report."""
    fields = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            fields[key] = value
    if fields.get("status") != "ok":
        return Outcome(ok=False)
    positions = [int(k) for k in fields["positions"].split(",") if k.strip()]
    values = [parse_element(ctx, v) for v in fields["values"].split(";") if v.strip()]
    return Outcome(ok=True, positions=positions, values=values,
                   error=parse_poly(ctx, fields["error"]).vector(n),
                   codeword=parse_poly(ctx, fields["codeword"]).vector(n),
                   message=parse_poly(ctx, fields["message"]))


# ---------------------------------------------------------------------------
# set-up and the timed loop
# ---------------------------------------------------------------------------

class Bench:

    def __init__(self, workload, seed, root):
        self.wl = workload
        self.seed = seed
        self.root = root
        self.session = None
        self.codes = None

    def __enter__(self):
        self.session = CliSession(self.root)
        return self

    def __exit__(self, *exc):
        self.session.close()

    def setup_once(self):
        """Field construction plus build_code for every code of the
        workload (the ``skewrs build`` request on the CLI workload);
        returns the seconds taken."""
        if self.wl.via_cli:
            dt = sum(self.session.build(spec) for spec in self.wl.codes)
            if self.codes is None:
                self.codes = build_codes(self.wl)   # ground truth, untimed
            return dt
        t0 = perf_counter()
        codes = build_codes(self.wl)
        dt = perf_counter() - t0
        self.codes = codes
        return dt

    @property
    def t(self):
        return self.codes[0][1].t

    def trial(self, index):
        return draw_trial(self.wl.name, self.seed, index, self.codes).materialize()

    def client(self, trial):
        if self.wl.via_cli:
            return cli_trial(self.session, trial)
        return inprocess_trial(trial)

    def warm_up(self):
        for i in range(len(self.codes)):
            try:
                self.client(self.trial(i))
            except TrialError:
                pass      # the timed loop reports it


def end_to_end(enc, dec, seg, setup):
    """``enc`` and ``dec`` hold one list of per-trial times per code,
    ``setup`` one time per set-up slot."""
    return {
        "trials_per_s": len(seg) / sum(seg),
        "decode_ms.p50": code_percentile(dec, 0.50) * 1e3,
        "decode_ms.p90": code_percentile(dec, 0.90) * 1e3,
        "encode_ms.p50": code_percentile(enc, 0.50) * 1e3,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mib(),
    }


def run_untraced(bench, target):
    """The end-to-end run.  The list is run ``passes`` times over and each
    trial keeps its fastest encode, decode and segment, so a stretch of the
    run in which the host is slow does not set the figures.  The
    ``setup_rounds`` passes spread evenly over the run also make the
    workload's set-up at the same evenly spread slots, and each slot keeps
    its fastest set-up.  Every pass's outputs go through the gate."""
    bench.setup_once()          # the codes for the warm-up; not timed
    passes, rounds = bench.wl.passes, bench.wl.setup_rounds
    n_trials = bench.wl.list_length(target / passes, bench.t)
    slots = bench.wl.setup_slots
    slot_at = {round(j * n_trials / slots): j for j in range(slots)}
    setup_passes = {r * passes // rounds for r in range(rounds)}
    bench.warm_up()
    gate = Gate()
    enc, dec, seg = (array("d", [math.inf]) * n_trials for _ in range(3))
    setup = [math.inf] * slots
    probes = []
    broken = set()
    for step in range(passes * n_trials):
        i = step % n_trials
        if i == 0:
            probes.append(host_probe_ns())
        if i in slot_at and step // n_trials in setup_passes:
            j = slot_at[i]
            setup[j] = min(setup[j], bench.setup_once())
        trial = bench.trial(i)
        gate.attempt(2)
        try:
            res = bench.client(trial)
        except TrialError as exc:
            gate.fail(i, str(exc), exc.ops)
            broken.add(i)
            continue
        enc[i] = min(enc[i], res.enc_s)
        dec[i] = min(dec[i], res.dec_s)
        seg[i] = min(seg[i], res.seg_s)
        gate.judge(trial, res.outcome, res.sent, res.received)
    ncodes = len(bench.codes)
    kept = [[i for i in range(c, n_trials, ncodes) if i not in broken] for c in range(ncodes)]
    if not all(kept):
        raise RuntimeError("a code has no completed trial")
    enc, dec = ([[col[i] for i in code] for code in kept] for col in (enc, dec))
    seg = [seg[i] for code in kept for i in code]
    metrics = end_to_end(enc, dec, seg, setup)
    info = {"trials": n_trials, "passes": passes, "completed": len(seg),
            "setups": rounds * len(slot_at), "measured_s": sum(seg),
            "host_probe_ns": probes}
    if len(seg) >= 1000:
        info["decode_ms.p99"] = code_percentile(dec, 0.99) * 1e3
    return metrics, gate, info


# ---------------------------------------------------------------------------
# the traced run
# ---------------------------------------------------------------------------

def run_traced(bench, target):
    """Per-layer numbers from one pass over the list.  Each trial
    runs once untraced and then once traced, with the span wrappers
    installed only for the traced run, so ``trace.overhead`` compares the
    two on the same machine state.  Non-CLI workloads then send a few CLI
    requests."""
    wl = bench.wl
    bench.setup_once()
    n_traced = wl.list_length(target / wl.passes, bench.t)
    bench.warm_up()
    metrics = micro_fields(bench)
    tracer = Tracer([code.ctx for _, code in bench.codes])
    gate_u, gate_t, gate_p = Gate(), Gate(), Gate()
    acc = LayerAccumulator()
    untraced_seg = traced_seg = 0.0
    kept = []
    with tracer.spans():
        for _ in range(wl.setup_slots):
            bench.setup_once()
    metrics.update(setup_layers(tracer.take(), wl.setup_slots))

    for i in range(n_traced):
        trial = bench.trial(i)
        gate_u.attempt(2)
        try:
            res = bench.client(trial)
        except TrialError as exc:
            gate_u.fail(i, str(exc), exc.ops)
            continue
        untraced_seg += res.seg_s
        gate_u.judge(trial, res.outcome, res.sent, res.received)
        if len(kept) < 32:
            kept.append((trial.ctx, res.received))
        if wl.via_cli:
            traced_seg += acc.trace_cli(tracer, bench.session, trial, gate_t)
            acc.trace_inprocess(tracer, trial, gate_t, judge=False)
        else:
            traced_seg += acc.trace_inprocess(tracer, trial, gate_t, judge=True)
    if not wl.via_cli:
        probe(bench, tracer, acc, gate_p)

    metrics.update(micro_parsing(kept))
    metrics.update(acc.metrics(bench.session))
    metrics["trace.overhead"] = traced_seg / untraced_seg
    info = {"trials": n_traced, "probe_requests": acc.probe_requests,
            "traced_digest": gate_t.digest}
    gate = gate_u
    for other, label in ((gate_t, "traced"), (gate_p, "probe")):
        gate.attempted += other.attempted
        gate.failed += other.failed
        gate.failures += [(i, f"{label}: {r}") for i, r in other.failures]
    if gate_t.digest != gate_u.digest:
        gate.fail(-1, "traced pass digest differs from the untraced pass")
    return metrics, gate, info


class LayerAccumulator:
    """Sums over the traced trials, turned into per-layer metrics."""

    def __init__(self):
        self.trials = 0
        self.stage_busy = dict.fromkeys(STAGES, 0.0)
        self.decode_s = 0.0          # untraced reference decode() calls
        self.branches = {"all_zero": 0, "direct": 0, "echelon": 0}
        self.busy, self.calls, self.ops = {}, {}, {}
        self.cli_busy, self.cli_calls = {}, {}
        self.probe_requests = 0

    @staticmethod
    def _merge(into, more):
        for k, v in more.items():
            into[k] = into.get(k, 0) + v

    def add_cli(self, taken):
        busy, calls, _ = taken
        self._merge(self.cli_busy, busy)
        self._merge(self.cli_calls, calls)

    def trace_cli(self, tracer, session, trial, gate):
        """One encode and decode request with spans installed; returns the
        segment in seconds, or 0.0 when the requests failed."""
        gate.attempt(2)
        try:
            with tracer.spans():
                res = cli_trial(session, trial, tracer)
        except TrialError as exc:
            gate.fail(trial.index, str(exc), exc.ops)
            return 0.0
        finally:
            self.add_cli(tracer.take())
        gate.judge(trial, res.outcome, res.sent, res.received)
        return res.seg_s

    def trace_inprocess(self, tracer, trial, gate, judge):
        """Encode and replay the decode with spans installed, then time a
        reference ``decode`` with nothing installed, then count field
        operations in one more ``decode`` with only the counters installed.
        Checks the replay against the reference; ``judge`` also passes the
        outcome to the gate.  Returns the traced segment in seconds."""
        code = trial.code
        gate.attempt(2)
        try:
            with tracer.spans():
                t0 = perf_counter()
                sent = encode(code, trial.msg).vector(code.n)
                received = [a + b for a, b in zip(sent, trial.err)]
                replayed, stages = replay_decode(code, received)
                t1 = perf_counter()
            busy, calls, _ = tracer.take()
            d0 = perf_counter()
            report = decode(code, received)
            d1 = perf_counter()
            with tracer.counters():
                decode(code, received)
            ops = tracer.take()[2]
        except Exception as exc:
            gate.fail(trial.index, f"traced trial raised {exc!r}", 2)
            tracer.take()
            return 0.0
        self._merge(self.busy, busy)
        self._merge(self.calls, calls)
        self._merge(self.ops, ops)
        self.trials += 1
        self.decode_s += d1 - d0
        for s, v in stages.busy.items():
            self.stage_busy[s] += v
        if stages.branch:
            self.branches[stages.branch] += 1
        reference = Outcome.from_report(report)
        if not same_outcome(replayed, reference):
            gate.fail(trial.index, "staged replay disagrees with decode()")
        elif judge:
            gate.judge(trial, reference, sent, received)
        return t1 - t0

    def metrics(self, session):
        n = max(self.trials, 1)      # one encode and one decode per trial
        busy, calls, ops = self.busy, self.calls, self.ops

        def per_call(name, scale):
            c = calls.get(name, 0)
            return busy.get(name, 0.0) / c * scale if c else 0.0

        stage_total = sum(self.stage_busy.values())
        located = self.branches["direct"] + self.branches["echelon"]
        out = {
            "fields.mul_per_decode": ops.get("mul", 0) / n,
            "fields.inv_per_decode": ops.get("inv", 0) / n,
            "fields.sigma_per_decode": ops.get("sigma", 0) / n,
            "fields.add_per_decode": ops.get("add", 0) / n,
            "skewpoly.mul.calls": calls.get("skewpoly.mul", 0) / n,
            "skewpoly.mul_us": per_call("skewpoly.mul", 1e6),
            "skewpoly.left_divmod.calls": calls.get("skewpoly.left_divmod", 0) / n,
            "skewpoly.left_divmod_us": per_call("skewpoly.left_divmod", 1e6),
            "skewpoly.twisted_shift_rows_us": per_call("skewpoly.twisted_shift_rows", 1e6),
            "linalg.eliminate.calls": calls.get("linalg.eliminate", 0) / n,
            "linalg.eliminate_us": per_call("linalg.eliminate", 1e6),
            "linalg.matmul_us": per_call("linalg.matmul", 1e6),
            "pgz.branch.all_zero": self.branches["all_zero"],
            "pgz.branch.direct": self.branches["direct"],
            "pgz.branch.echelon": self.branches["echelon"],
            "pgz.verify_share": self.stage_busy["verify"] / self.decode_s if self.decode_s else 0.0,
            "pgz.echelon_share": self.branches["echelon"] / located if located else 0.0,
            "pgz.stage_coverage": stage_total / self.decode_s if self.decode_s else 0.0,
        }
        for s in STAGES:
            out[f"pgz.{s}_us"] = self.stage_busy[s] / n * 1e6
        cb, cc = self.cli_busy, self.cli_calls
        loads = cc.get("cli.load_bundle", 0)
        out["cli.load_bundle_ms"] = cb.get("cli.load_bundle", 0.0) / loads * 1e3 if loads else 0.0
        out["cli.glue_ms"] = statistics.mean(session.glue) * 1e3 if session.glue else 0.0
        for rc in (0, 1, 2):
            out[f"cli.exit.{rc}"] = session.exits.get(rc, 0)
        return out


def setup_layers(taken, reps):
    busy, calls, _ = taken
    lclm_calls = calls.get("skewpoly.lclm", 0)
    return {
        "fields.context_ms": busy.get("fields.context", 0.0) / reps * 1e3,
        "codes.is_normal_ms": busy.get("codes.is_normal", 0.0) / reps * 1e3,
        "codes.generator_ms": busy.get("codes.generator", 0.0) / reps * 1e3,
        "codes.eval_matrix_ms": busy.get("codes.eval_matrix", 0.0) / reps * 1e3,
        "skewpoly.lclm_ms": busy.get("skewpoly.lclm", 0.0) / lclm_calls * 1e3
        if lclm_calls else 0.0,
    }


def probe(bench, tracer, acc, gate):
    """A few CLI requests per code (weights 0, 1, t and t+1 from the start
    of the list), so the cli and parsing layers are measured on every
    workload."""
    ncodes = len(bench.codes)
    for c, (spec, code) in enumerate(bench.codes):
        bench.session.build(spec)
        for pos in range(code.t + 2):
            trial = bench.trial(pos * ncodes + c)
            if trial.weight in (0, 1, code.t, code.t + 1):
                acc.trace_cli(tracer, bench.session, trial, gate)
                acc.probe_requests += 2


def micro_fields(bench):
    """ns per mul, inverse and sigma^k on 64 generated nonzero operands of
    each of the workload's fields (the mean over fields)."""
    results = []
    for spec, code in bench.codes:
        ctx = code.ctx
        rng = random.Random(f"{bench.wl.name}:{bench.seed}:micro:{spec.name}")
        elements, powers = [], []
        while len(elements) < 64:
            s = spec.drawer.draw(rng)
            if not spec.drawer.is_zero(s):
                elements.append(spec.drawer.element(ctx, s))
                powers.append(rng.randrange(1, ctx.order))
        results.append(field_microbench(ctx, elements, powers))
    return {f"fields.{op}_ns": statistics.mean(r[op] for r in results)
            for op in ("mul", "inv", "sigma")}


def micro_parsing(kept):
    """us to format a received word and to parse it back (round trip
    checked)."""
    polys = [(ctx, SkewPolynomial(ctx, rx)) for ctx, rx in kept]
    texts = [(ctx, str(p)) for ctx, p in polys]
    for (ctx, p), (_, text) in zip(polys, texts):
        if parse_poly(ctx, text) != p:
            raise RuntimeError(f"parse_poly does not round-trip {text!r}")
    return {
        "parsing.format_us": per_op_ns(str, [(p,) for _, p in polys]) / 1e3,
        "parsing.parse_poly_us": per_op_ns(parse_poly, texts) / 1e3,
    }
