"""Command-line front end and verification harness.

Verbs:

  build          construct a code from a config file, print a summary and
                 write a code bundle
  encode         encode a message polynomial file against a bundle
  decode         decode a received word file, write the decode report
  simulate       seeded random-error trials with per-weight statistics
  paper-example  replay a bundled worked example and check every
                 intermediate value
  oracle         brute-force distance and nearest-codeword cross-checks

Exit codes: 0 on success, 1 on a verification or assertion failure, 2 on
usage or configuration errors.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys
import time
from dataclasses import dataclass, field

from .codes import (CodeError, ConfigError, SkewRSCode, code_from_config,
                    codewords, encode, min_distance_oracle)
from .parsing import ParseError, parse_poly
from .pgz import BRANCH_ECHELON, decode
from .skewpoly import SkewPolynomial
from .worked_examples import EXAMPLE_CONFIGS, run_example


@dataclass
class TrialStats:
    trials: int = 0
    successes: int = 0
    failures: int = 0
    echelon_branch_count: int = 0
    per_weight: dict = field(default_factory=dict)
    wall_time: float = 0.0

    def record(self, weight, ok, echelon):
        self.trials += 1
        t, s = self.per_weight.get(weight, (0, 0))
        self.per_weight[weight] = (t + 1, s + (1 if ok else 0))
        if ok:
            self.successes += 1
        else:
            self.failures += 1
        if echelon:
            self.echelon_branch_count += 1

    def render(self):
        lines = [f"trials = {self.trials}",
                 f"successes = {self.successes}",
                 f"failures = {self.failures}",
                 f"echelon_branch_count = {self.echelon_branch_count}",
                 f"wall_time = {self.wall_time:.3f}s"]
        for w in sorted(self.per_weight):
            t, s = self.per_weight[w]
            lines.append(f"weight {w}: {s}/{t} recovered")
        return "\n".join(lines)


def random_message(code, rng):
    ctx = code.ctx
    return SkewPolynomial(ctx, [ctx.random_element(rng)
                                for _ in range(code.dimension)])


def random_error(code, rng, weight):
    ctx = code.ctx
    vec = [ctx.zero] * code.n
    for pos in rng.sample(range(code.n), weight):
        vec[pos] = ctx.random_nonzero(rng)
    return vec


def run_trial(code, rng, weight):
    """One seeded encode/corrupt/decode round; returns (recovered, report)."""
    msg = random_message(code, rng)
    cw = encode(code, msg).vector(code.n)
    err = random_error(code, rng, weight)
    received = [a + b for a, b in zip(cw, err)]
    report = decode(code, received)
    ok = report.ok and report.error == err and report.message == msg
    return ok, report


def simulate(code, trials, weights, seed):
    """Deterministic random-error simulation.

    Each trial draws its own generator seeded from (seed, index), so the
    statistics are independent of execution order.
    """
    if trials < 0:
        raise ConfigError(f"trials must be nonnegative, got {trials}")
    stats = TrialStats()
    start = time.perf_counter()
    weights = list(weights)
    for i in range(trials):
        rng = random.Random(f"{seed}:{i}")
        weight = weights[0] if len(weights) == 1 else rng.choice(weights)
        ok, report = run_trial(code, rng, weight)
        stats.record(weight, ok, report.branch == BRANCH_ECHELON)
    stats.wall_time = time.perf_counter() - start
    return stats


# ---------------------------------------------------------------------------
# code bundles: the original config plus derived fields for display
# ---------------------------------------------------------------------------

def write_bundle(path, config_text, code):
    ctx = code.ctx
    with open(path, "w") as fh:
        fh.write(config_text)
        if not config_text.endswith("\n"):
            fh.write("\n")
        fh.write(f"# derived: n = {code.n}, t = {code.t}\n")
        fh.write(f"# derived: beta = {ctx.format(code.beta)}\n")
        fh.write(f"# derived: g = {code.g}\n")


def read_text(path):
    """A file's text; bytes that are not UTF-8 are a usage error."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8: {exc.reason} at byte {exc.start}") from None


def load_bundle(path):
    return code_from_config(read_text(path))


def summarize(code):
    ctx = code.ctx
    return "\n".join([
        f"field = {ctx!r}",
        f"n = {code.n}",
        f"delta = {code.delta}",
        f"t = {code.t}",
        f"r = {code.r}",
        f"dimension = {code.dimension}",
        f"alpha = {ctx.format(code.alpha)}",
        f"beta = {ctx.format(code.beta)}",
        f"g = {code.g}",
    ])


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_build(args):
    text = read_text(args.config)
    ctx, code = code_from_config(text)
    print(summarize(code))
    if args.out:
        write_bundle(args.out, text, code)
        print(f"bundle written to {args.out}")
    return 0


def cmd_encode(args):
    ctx, code = load_bundle(args.code)
    msg = parse_poly(ctx, read_text(args.infile))
    cw = encode(code, msg)
    out = str(cw) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)
    return 0


def cmd_decode(args):
    ctx, code = load_bundle(args.code)
    received = parse_poly(ctx, read_text(args.infile))
    if received.degree >= code.n:
        raise CodeError(f"received word has degree {received.degree};"
                        f" words of length {code.n} have degree below {code.n}")
    report = decode(code, received.vector(code.n))
    out = report.to_text(ctx)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)
    return 0 if report.ok else 1


def parse_weights(spec, t):
    """--weights accepts 'W', 'LO:HI' or a comma list; default 0..t."""
    if spec is None:
        return list(range(t + 1))
    try:
        if ":" in spec:
            lo, _, hi = spec.partition(":")
            weights = list(range(int(lo), int(hi) + 1))
        else:
            weights = [int(w) for w in spec.split(",")]
    except ValueError:
        raise ConfigError(f"weights {spec!r} are not integers") from None
    if not weights:
        raise ConfigError(f"weight range {spec!r} is empty")
    return weights


def cmd_simulate(args):
    ctx, code = load_bundle(args.code)
    weights = parse_weights(args.weights, code.t)
    if any(w < 0 or w > code.n for w in weights):
        raise ConfigError(f"weights must lie in [0, {code.n}]")
    stats = simulate(code, args.trials, weights, args.seed)
    print(stats.render())
    return 0 if stats.failures == 0 or max(weights) > code.t else 1


def cmd_paper_example(args):
    transcript = run_example(args.which)
    print(transcript.render())
    return 0 if transcript.passed else 1


def cmd_oracle(args):
    ctx, code = load_bundle(args.code)
    if ctx.size is None:
        print("field is infinite: distance enumeration declined,"
              " running the random property suite instead")
        stats = simulate(code, args.trials, list(range(code.t + 1)), args.seed)
        print(stats.render())
        return 0 if stats.failures == 0 else 1
    try:
        dist = min_distance_oracle(code, budget=args.budget)
    except CodeError as exc:
        print(f"distance oracle declined: {exc}")
        return 2
    print(f"exhaustive minimum distance = {dist} (designed {code.delta})")
    ok = dist == code.delta
    print("MDS check:", "pass" if ok else "FAIL")
    if code.ctx.size ** code.dimension * (1 + code.n * (code.ctx.size - 1)) <= args.budget:
        mismatches = nearest_codeword_equivalence(code)
        print(f"nearest-codeword equivalence: {mismatches} disagreements")
        ok = ok and mismatches == 0
    return 0 if ok else 1


def nearest_codeword_equivalence(code, radius=None):
    """Decode every word within the given radius of a codeword and compare
    against the ball center; balls are disjoint up to the packing radius so
    the center is the unique nearest codeword.  Returns the disagreement
    count."""
    import itertools
    ctx = code.ctx
    radius = code.t if radius is None else radius
    if radius > code.t:
        raise CodeError("balls overlap beyond the packing radius")
    ball = {}
    nonzero = [e for e in ctx.elements() if e]
    for cw in codewords(code):
        key = tuple(v.raw for v in cw)
        if key in ball:
            raise CodeError("codeword enumeration repeated a word")
        ball[key] = cw
        for w in range(1, radius + 1):
            for positions in itertools.combinations(range(code.n), w):
                for values in itertools.product(nonzero, repeat=w):
                    noisy = list(cw)
                    for pos, e in zip(positions, values):
                        noisy[pos] = noisy[pos] + e
                    nkey = tuple(v.raw for v in noisy)
                    if nkey in ball:
                        raise CodeError("balls are not disjoint")
                    ball[nkey] = cw
    mismatches = 0
    for key, center in ball.items():
        word = [ctx.element(v) for v in key]
        report = decode(code, word)
        if not report.ok or report.codeword != center:
            mismatches += 1
    return mismatches


@functools.cache
def _parser():
    # built once per process: building it costs about as much as a whole
    # in-process encode request, and parsing leaves it unchanged
    parser = argparse.ArgumentParser(
        prog="skewrs",
        description="skew Reed-Solomon codes over exact fields")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("build", help="build a code from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="write a code bundle here")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("encode", help="encode a message polynomial")
    p.add_argument("--code", required=True, help="code bundle file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="decode a received word")
    p.add_argument("--code", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("simulate", help="seeded random-error trials")
    p.add_argument("--code", required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--weights", help="'W', 'LO:HI', or comma list (default 0..t)")
    p.add_argument("--seed", default="0")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("paper-example", help="replay a bundled worked example")
    p.add_argument("--which", type=int, choices=(1, 2, 3), required=True)
    p.set_defaults(func=cmd_paper_example)

    p = sub.add_parser("oracle", help="brute-force verification suite")
    p.add_argument("--code", required=True)
    p.add_argument("--budget", type=int, default=1 << 20)
    p.add_argument("--trials", type=int, default=200,
                   help="property-suite trials for infinite fields")
    p.add_argument("--seed", default="0")
    p.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ParseError, CodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
