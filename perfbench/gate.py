"""Correctness gate and outcome digest.

The gate compares each decode outcome with the generator-side ground truth
(the drawn message and error).  A failed operation is an exception, a CLI
exit of 2, a weight <= t trial that is not recovered exactly, or an ``ok``
outcome whose codeword is not ``encode(message)`` or lies more than t from
the received word.  Trials above t are sorted into recovered, detected and
miscorrected.

The digest hashes only what the decoder's contract fixes: the ok flag and,
for ok outcomes, positions, values, codeword and message.  Branch labels
and failure strings are left out, so a later change to how a failure is
found does not change the digest.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass
from typing import Optional

from skewrs import encode


@dataclass
class Outcome:
    ok: bool
    positions: Optional[list] = None
    values: Optional[list] = None
    error: Optional[list] = None
    codeword: Optional[list] = None
    message: object = None
    branch: Optional[str] = None     # only read on ok outcomes

    @classmethod
    def from_report(cls, report):
        if not report.ok:
            return cls(ok=False)
        return cls(ok=True, positions=list(report.positions),
                   values=list(report.values), error=list(report.error),
                   codeword=list(report.codeword), message=report.message,
                   branch=report.branch)

    def contract_fields(self):
        """The outcome reduced to what the decoder contract fixes."""
        if not self.ok:
            return (False,)
        return (True, self.positions, self.values, self.codeword, self.message)


class Gate:

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []            # (trial index, reason), first few kept
        self.classes = {}             # weight -> Counter of outcome classes
        self._digest = hashlib.sha256()

    def attempt(self, ops=1):
        self.attempted += ops

    def fail(self, index, reason, ops=1):
        self.failed += ops
        if len(self.failures) < 10:
            self.failures.append((index, reason))

    def judge(self, trial, outcome, sent, received):
        """Classify one decode; returns the failure reason or None.

        ``sent`` is the codeword the trial encoded, ``received`` the word
        handed to the decoder, both as length-n vectors.
        """
        reason = check_outcome(trial, outcome, sent, received)
        if reason is not None:
            self.fail(trial.index, reason)
        else:
            cls = classify(trial, outcome)
            self.classes.setdefault(trial.weight, Counter())[cls] += 1
            self._digest.update(digest_line(trial, outcome).encode())
        return reason

    @property
    def digest(self):
        return self._digest.hexdigest()

    def class_table(self):
        return {str(w): dict(sorted(c.items())) for w, c in sorted(self.classes.items())}


def check_outcome(trial, outcome, sent, received):
    code = trial.code
    if not outcome.ok:
        if trial.weight <= code.t:
            return f"weight {trial.weight} <= t={code.t} not recovered (decode failed)"
        return None
    if exact(trial, outcome):
        if outcome.codeword != sent:
            return "recovered message and error but the codeword is not the sent word"
        support = [k for k, e in enumerate(trial.err) if e]
        if outcome.positions != support or \
                outcome.values != [trial.err[k] for k in support]:
            return "positions or values disagree with the recovered error"
        return None
    if trial.weight <= code.t:
        return f"weight {trial.weight} <= t={code.t} decoded to a different word"
    try:
        expected = encode(code, outcome.message).vector(code.n)
    except ValueError as exc:
        return f"ok outcome whose message cannot be encoded: {exc}"
    if outcome.codeword != expected:
        return "ok outcome whose codeword is not encode(message)"
    dist = sum(1 for a, b in zip(outcome.codeword, received) if a != b)
    if dist > code.t:
        return f"ok outcome {dist} away from the received word (t={code.t})"
    return None


def exact(trial, outcome):
    return outcome.message == trial.msg and outcome.error == trial.err


def classify(trial, outcome):
    if not outcome.ok:
        return "detected"
    return "recovered" if exact(trial, outcome) else "miscorrected"


def digest_line(trial, outcome):
    fmt = trial.ctx.format
    parts = [str(trial.index), "ok" if outcome.ok else "failed"]
    if outcome.ok:
        parts += [",".join(map(str, outcome.positions)),
                  ";".join(fmt(v) for v in outcome.values),
                  ";".join(fmt(c) for c in outcome.codeword),
                  str(outcome.message)]
    return "|".join(parts) + "\n"
