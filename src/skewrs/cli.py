"""Command-line front end and verification harness.

Verbs:

  build          construct a code from a config file, print a summary and
                 write a code bundle
  encode         encode a message polynomial file against a bundle
  decode         decode a received word file, write the decode report
  simulate       seeded random-error trials with per-weight statistics
  paper-example  decode a bundled worked example and check every
                 intermediate value
  oracle         the distance by parity-check minors and a generator check,
                 every error of weight <= t up to scale, seeded trials

Exit codes: 0 on success, 1 on a verification or assertion failure, 2 on
usage or configuration errors.

The argument tree is built once per process.  An argv whose first word is
a verb goes straight to that verb's subparser, and what the subparser
leaves over is the tree's own "unrecognized arguments" error; any other
argv goes through the whole tree.  Both routes print the same text.

Files are read and written as bytes, in UTF-8 whatever the locale.  An
input's "\\r\\n" and lone "\\r" read as "\\n", as text mode reads them, so
parse positions do not move.  A stdout whose encoding cannot carry the
output is a usage error.  The one exception is build's summary beside a
bundle written with --out, which escapes what stdout cannot carry.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import os
import random
import stat
import sys
import time
from dataclasses import dataclass, field

from .codes import CodeError, ConfigError, code_from_config, conjugate_matrix, encode
from .fields import FormatError
from .linalg import eliminate
from .parsing import ParseError, parse_poly
from .pgz import BRANCH_ECHELON, decode
from .skewpoly import SkewPolynomial
from .worked_examples import run_example


@dataclass
class TrialStats:
    echelon_branch_count: int = 0
    per_weight: dict = field(default_factory=dict)   # weight -> (trials, successes)
    wall_time: float = 0.0

    trials = property(lambda self: sum(n for n, _ in self.per_weight.values()))
    successes = property(lambda self: sum(s for _, s in self.per_weight.values()))
    failures = property(lambda self: self.trials - self.successes)

    def record(self, weight, ok, echelon):
        n, s = self.per_weight.get(weight, (0, 0))
        self.per_weight[weight] = (n + 1, s + ok)
        self.echelon_branch_count += echelon

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


def run_trial(code, rng, weight):
    """One seeded encode/corrupt/decode round, a random message and then
    a random error of the given weight; returns (recovered, report)."""
    ctx = code.ctx
    msg = SkewPolynomial(ctx, [ctx.random_element(rng) for _ in range(code.dimension)])
    err = [ctx.zero] * code.n
    for pos in rng.sample(range(code.n), weight):
        err[pos] = ctx.random_nonzero(rng)
    received = [a + b for a, b in zip(encode(code, msg).vector(code.n), err)]
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
    if not config_text.endswith("\n"):
        config_text += "\n"
    _write_output(path, f"{config_text}# derived: n = {code.n}, t = {code.t}\n"
                        f"# derived: beta = {code.ctx.format(code.beta)}\n"
                        f"# derived: g = {code.g}\n")


def read_text(path):
    """A file's text: its bytes as UTF-8, with "\\r\\n" and a lone "\\r"
    read as "\\n", as text mode reads them.  Bytes that are not UTF-8 are a
    usage error."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8: {exc.reason} at byte {exc.start}") from None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


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

def _write_output(path, text):
    """text to the file at path in UTF-8, or to stdout when no path is given.

    An existing file is written over in place and then cut to the new
    length, so it keeps its inode and mode, and a symlink keeps pointing at
    it.  Opening with truncation instead would make ext4 (auto_da_alloc)
    start writeback of the rewritten file on close, about ten times the
    cost of the write.  Nothing is fsynced.  Only a regular file is cut, so
    a device or a FIFO is written as a stream.
    """
    if not path:
        sys.stdout.write(text)
        return
    data = text.encode()
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        done = 0
        while done < len(data):
            done += os.write(fd, data[done:])
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, done)
    finally:
        os.close(fd)


def _note(text):
    """A line on stdout beside a file written with --out: what stdout's
    encoding cannot carry is escaped, as stderr escapes it."""
    encoding = getattr(sys.stdout, "encoding", None) or "utf-8"
    print(text.encode(encoding, "backslashreplace").decode(encoding))


def cmd_build(args):
    text = read_text(args.config)
    ctx, code = code_from_config(text)
    if not args.out:
        print(summarize(code))
        return 0
    _note(summarize(code))
    write_bundle(args.out, text, code)
    _note(f"bundle written to {args.out}")
    return 0


def cmd_encode(args):
    ctx, code = load_bundle(args.code)
    msg = parse_poly(ctx, read_text(args.infile))
    _write_output(args.out, f"{encode(code, msg)}\n")
    return 0


def cmd_decode(args):
    ctx, code = load_bundle(args.code)
    received = parse_poly(ctx, read_text(args.infile))
    if received.degree >= code.n:
        raise CodeError(f"received word has degree {received.degree};"
                        f" words of length {code.n} have degree below {code.n}")
    report = decode(code, received.vector(code.n))
    _write_output(args.out, report.to_text(ctx))
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
    return 1 if any(s < n for w, (n, s) in stats.per_weight.items() if w <= code.t) else 0


def cmd_paper_example(args):
    transcript = run_example(args.which)
    print(transcript.render())
    return 0 if transcript.passed else 1


def cmd_oracle(args):
    for name in ("budget", "trials"):
        value = getattr(args, name)
        if value < 0:
            raise ConfigError(f"{name} must be nonnegative, got {value}")
    ctx, code = load_bundle(args.code)
    dist = parity_check_distance(code, args.budget)
    generated = generator_check(code)
    print("generator check:", "pass" if generated else "FAIL")
    print(f"exhaustive minimum distance = {dist} (designed {code.delta})")
    print("MDS check:", "pass" if dist == code.delta else "FAIL")
    ok = generated and dist == code.delta
    if ctx.size is None:
        print("nearest-codeword equivalence skipped: the field is infinite")
    elif (patterns := 1 + sum(math.comb(code.n, w) * (ctx.size - 1) ** (w - 1)
                              for w in range(1, code.t + 1))) > args.budget:
        print(f"nearest-codeword equivalence skipped: {patterns} error patterns"
              f" up to scale exceed budget {args.budget}")
    else:
        mismatches = error_pattern_equivalence(code)
        print(f"nearest-codeword equivalence: {mismatches} disagreements"
              f" in {patterns} error patterns up to scale")
        ok = ok and mismatches == 0
    # the sampled check that decode(c + e) is decode(e) shifted by c
    stats = simulate(code, args.trials, range(code.t + 1), args.seed)
    print(stats.render())
    return 0 if ok and stats.failures == 0 else 1


def parity_check_columns(code):
    """Column j of the parity-check matrix H: the right evaluations of x^j
    at the delta - 1 beta-roots sigma^(r+i)(beta), as the syndromes sum
    them, with row i scaled by sigma^(r+i)(alpha): sigma^(r+i+j)(alpha).  A
    row scaled by a nonzero factor keeps every minor's rank."""
    return conjugate_matrix(code.ctx, code.conj, range(code.r, code.r + code.n),
                            code.delta - 1).raw


def parity_check_distance(code, budget):
    """The minimum distance of ker H: s + 1 for the largest s at which every
    s columns of H are independent, one elimination per column subset, so
    delta when every delta - 1 are (MacWilliams & Sloane, ch. 11).  A level
    of more than budget subsets is refused."""
    columns = parity_check_columns(code)
    for s in range(code.delta - 1, 0, -1):
        if math.comb(code.n, s) > budget:
            raise ConfigError(f"{math.comb(code.n, s)} parity-check minors exceed budget {budget}")
        if all(len(eliminate(code.ctx, [list(c) for c in subset])) == s
               for subset in itertools.combinations(columns, s)):
            return s + 1
    return 1


def generator_check(code):
    """Whether g has degree delta - 1 and vanishes at the delta - 1
    beta-roots: then the code {m * g}, of dimension n - delta + 1, lies in
    ker H, and it is ker H when H has rank delta - 1, as it has at d = delta."""
    g = code.g
    return g.degree == code.delta - 1 and all(
        code.ctx.conjugate_zeros(code.conj_table, g.raw, code.delta - 1, code.r))


def error_pattern_equivalence(code):
    """Decode each error e of weight <= t whose first nonzero value is 1,
    on the zero codeword; count the reports that are not ok, or whose
    error is not e, or whose codeword or message is not zero.  decode(c + e)
    is decode(e) shifted by c and decode(lambda * e) is decode(e) scaled by
    lambda, so these decodes stand for every word within t of a codeword."""
    ctx, n = code.ctx, code.n
    nonzero = [e for e in ctx.elements() if e]
    mismatches = 0
    for w in range(code.t + 1):
        for positions in itertools.combinations(range(n), w):
            for values in itertools.product(nonzero, repeat=max(w - 1, 0)):
                e = [ctx.zero] * n
                for k, v in zip(positions, (ctx.one,) + values):
                    e[k] = v
                report = decode(code, e)
                if not (report.ok and report.error == e and not any(report.codeword)
                        and report.message.is_zero):
                    mismatches += 1
    return mismatches


@functools.cache
def _parser():
    """The argument tree and its subparsers by verb.  Built once per
    process: building it costs about as much as a whole in-process encode
    request, and parsing leaves it unchanged."""
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

    p = sub.add_parser("paper-example", help="decode a bundled worked example and check it")
    p.add_argument("--which", type=int, choices=(1, 2, 3), required=True)
    p.set_defaults(func=cmd_paper_example)

    p = sub.add_parser("oracle", help="brute-force verification suite")
    p.add_argument("--code", required=True)
    p.add_argument("--budget", type=int, default=1 << 20,
                   help="most parity-check minors, C(n, delta-1), and most error"
                        " patterns of weight <= t up to scale")
    p.add_argument("--trials", type=int, default=200,
                   help="seeded trials of weight <= t, the shift check")
    p.add_argument("--seed", default="0")
    p.set_defaults(func=cmd_oracle)
    return parser, sub.choices


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    parser, verbs = _parser()
    if argv and argv[0] in verbs:
        # the verb's own subparser, as the tree would call it, and then the
        # tree's own error for what the subparser leaves over
        args, extras = verbs[argv[0]].parse_known_args(argv[1:],
                                                       argparse.Namespace(verb=argv[0]))
        if extras:
            parser.error(f"unrecognized arguments: {' '.join(extras)}")
    else:
        args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ParseError, CodeError, FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnicodeEncodeError as exc:   # a stdout whose encoding lacks a character
        print(f"error: stdout cannot carry the output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
