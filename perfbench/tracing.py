"""Tracing from outside the library: counting and timing wrappers, the
stage-by-stage decode replay and the field microbenchmarks.

Nothing here edits the library's files.  ``Tracer.spans`` and
``Tracer.counters`` swap wrappers into the library's classes and module
namespaces for the length of a ``with`` block and put the originals back
after it; untraced runs never enter either.  Names imported into another
module (``pgz`` imports ``left_divmod``, ``twisted_shift_rows`` and
``solve_row_system`` by name, ``cli`` imports ``decode`` and
``parse_poly``) are wrapped in every module that holds them, so a call is
seen whichever name it goes through.
"""

from __future__ import annotations

import operator
import statistics
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

from skewrs import SkewPolynomial, cli, codes, linalg, pgz, skewpoly
from skewrs.linalg import Matrix

from gate import Outcome

# element-level operations counted per decode; a division counts as one
# inversion, and operations nested inside a counted one are not counted
FIELD_OPS = {"__add__": "add", "__sub__": "add", "__mul__": "mul",
             "__truediv__": "inv", "inverse": "inv"}

STAGES = ("syndromes", "syndrome_matrix", "rho", "locate", "values", "verify")


class Tracer:
    """Spans and field-operation counters, each installed only for the
    code it measures: ``with tracer.spans():`` times library calls and
    ``with tracer.counters():`` counts element operations.  Nothing is
    installed outside those blocks, so no wrapper slows what is not being
    measured, and the two are never installed together."""

    def __init__(self, contexts):
        self.contexts = contexts
        self.busy = defaultdict(float)
        self.calls = Counter()
        self.ops = Counter()
        self._depth = Counter()
        self._in_op = False
        self._patches = []

    # -- collection ------------------------------------------------------------

    def take(self):
        """Return (busy, calls, ops) collected so far and start afresh."""
        out = (dict(self.busy), dict(self.calls), dict(self.ops))
        self.busy.clear()
        self.calls.clear()
        self.ops.clear()
        return out

    def span(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._depth[name]:
                return fn(*args, **kwargs)
            tracer._depth[name] += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.busy[name] += perf_counter() - t0
                tracer.calls[name] += 1
                tracer._depth[name] -= 1
        return wrapper

    def counter(self, key, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._in_op:
                return fn(*args, **kwargs)
            tracer._in_op = True
            try:
                tracer.ops[key] += 1
                return fn(*args, **kwargs)
            finally:
                tracer._in_op = False
        return wrapper

    # -- installation ------------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _patch_everywhere(self, name, fn, modules):
        wrapper = self.span(name, fn)
        holders = [mod for mod in modules if getattr(mod, fn.__name__, None) is fn]
        if not holders:
            raise RuntimeError(f"no module holds {fn.__name__} to trace as {name}")
        for mod in holders:
            self._patch(mod, fn.__name__, wrapper)

    def _install_spans(self):
        self._patch(SkewPolynomial, "__mul__", self.span("skewpoly.mul", SkewPolynomial.__mul__))
        self._patch_everywhere("skewpoly.left_divmod", skewpoly.left_divmod,
                               (skewpoly, pgz, codes))
        self._patch_everywhere("skewpoly.lclm", skewpoly.lclm, (skewpoly,))
        self._patch_everywhere("skewpoly.twisted_shift_rows", skewpoly.twisted_shift_rows,
                               (skewpoly, pgz, codes))
        eliminate = "linalg.eliminate"
        for attr in ("rref", "rcef", "rank"):
            self._patch(Matrix, attr, self.span(eliminate, getattr(Matrix, attr)))
        self._patch_everywhere(eliminate, linalg.solve_row_system, (linalg, pgz))
        self._patch(Matrix, "__mul__", self.span("linalg.matmul", Matrix.__mul__))
        self._patch_everywhere("codes.is_normal", codes.is_normal, (codes,))
        self._patch_everywhere("codes.generator", codes.lclm_many, (codes,))
        self._patch_everywhere("codes.eval_matrix", codes.evaluation_matrix, (codes,))
        self._patch_everywhere("fields.context", codes.context_from_config, (codes,))
        self._patch_everywhere("cli.load_bundle", cli.load_bundle, (cli,))
        self._patch_everywhere("cli.parse", cli.parse_poly, (cli,))
        self._patch_everywhere("cli.decode", cli.decode, (cli,))
        self._patch(pgz.DecodeReport, "to_text",
                    self.span("cli.format", pgz.DecodeReport.to_text))

    def _install_counters(self):
        contexts = self.contexts
        for ctx_type in sorted({type(c) for c in contexts}, key=lambda c: c.__name__):
            self._patch(ctx_type, "sigma", self.counter("sigma", ctx_type.sigma))
        for el_type in sorted({type(c.zero) for c in contexts}, key=lambda c: c.__name__):
            for attr, key in FIELD_OPS.items():
                self._patch(el_type, attr, self.counter(key, getattr(el_type, attr)))

    @contextmanager
    def _installed(self, install):
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            install()
            yield self
        finally:
            self.uninstall()

    def spans(self):
        return self._installed(self._install_spans)

    def counters(self):
        return self._installed(self._install_counters)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


# ---------------------------------------------------------------------------
# stage-by-stage replay of pgz.decode through its public stage functions
# ---------------------------------------------------------------------------

class _Stages:
    def __init__(self):
        self.busy = dict.fromkeys(STAGES, 0.0)
        self.branch = None        # "all_zero", "direct" or "echelon" once known

    def timed(self, stage, fn, *args):
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            self.busy[stage] += perf_counter() - t0


def replay_decode(code, vec):
    """Decode ``vec`` stage by stage, mirroring ``pgz.decode``'s control
    flow; returns (Outcome, _Stages).  A locate call that does not return
    the direct branch is counted as an echelon attempt, failed or not."""
    ctx = code.ctx
    st = _Stages()
    s = st.timed("syndromes", pgz.syndromes, code, vec) if code.t >= 1 else []
    if all(not si for si in s):
        st.branch = "all_zero"
        q, rem = st.timed("verify", pgz.left_divmod, SkewPolynomial(ctx, vec), code.g)
        if not rem.is_zero:
            return Outcome(ok=False), st
        return Outcome(ok=True, positions=[], values=[], error=[ctx.zero] * code.n,
                       codeword=list(vec), message=q, branch=pgz.BRANCH_ALL_ZERO), st
    smat = st.timed("syndrome_matrix", pgz.build_syndrome_matrix, code, s)
    try:
        mu, rho = st.timed("rho", pgz.extract_rho, smat)
    except ValueError:
        return Outcome(ok=False), st
    try:
        positions, branch = st.timed("locate", pgz.locate_positions, code, mu, rho)
    except pgz.LocateFailure:
        st.branch = "echelon"
        return Outcome(ok=False), st
    st.branch = "direct" if branch == pgz.BRANCH_DIRECT else "echelon"
    if len(positions) > code.t:
        return Outcome(ok=False), st
    try:
        values = st.timed("values", pgz.error_values, code, positions, s)
    except ValueError:
        return Outcome(ok=False), st

    def verify():
        err = [ctx.zero] * code.n
        for k, v in zip(positions, values):
            err[k] = v
        corrected = [a - b for a, b in zip(vec, err)]
        if any(si for si in pgz.syndromes(code, corrected)):
            return None
        q, rem = pgz.left_divmod(SkewPolynomial(ctx, corrected), code.g)
        return None if not rem.is_zero else (err, corrected, q)

    checked = st.timed("verify", verify)
    if checked is None:
        return Outcome(ok=False), st
    err, corrected, q = checked
    return Outcome(ok=True, positions=positions, values=values, error=err,
                   codeword=corrected, message=q, branch=branch), st


def same_outcome(a, b):
    """Equal on the contract-fixed fields, and on the branch when ok."""
    return a.contract_fields() == b.contract_fields() and \
        (not a.ok or (a.error == b.error and a.branch == b.branch))


# ---------------------------------------------------------------------------
# microbenchmarks on generated operands
# ---------------------------------------------------------------------------

def per_op_ns(fn, args, min_seconds=0.05, min_rounds=5):
    """Median over rounds of the time per call of fn(*a) for a in args."""
    rounds = []
    spent = 0.0
    while len(rounds) < min_rounds or spent < min_seconds:
        t0 = perf_counter()
        for a in args:
            fn(*a)
        dt = perf_counter() - t0
        spent += dt
        rounds.append(dt / len(args) * 1e9)
    return statistics.median(rounds)


def field_microbench(ctx, elements, sigma_powers):
    """ns per mul, inverse and sigma^k on the given nonzero elements."""
    pairs = list(zip(elements, elements[1:] + elements[:1]))
    el_type = type(ctx.zero)
    return {
        "mul": per_op_ns(operator.mul, pairs),
        "inv": per_op_ns(el_type.inverse, [(x,) for x in elements]),
        "sigma": per_op_ns(ctx.sigma, list(zip(elements, sigma_powers))),
    }
