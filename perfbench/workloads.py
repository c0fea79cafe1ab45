"""Workload definitions and seeded input generation.

Every input is drawn from the benchmark's own ``random.Random`` and turned
into field elements with ``ctx.element`` or ``parse_element``; the
library's ``random_*`` helpers are never called, so a change to them cannot
change the traffic.  Each trial gets its own generator seeded from
(workload, seed, index), so a trial's inputs do not depend on how many
trials the run makes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from skewrs import SkewPolynomial, parse_element
from skewrs.codes import code_from_config

GF4096_CONFIG = """\
# distance-5 code of length 6 over GF(2^12)
field.kind = finite-field
field.p = 2
field.degree = 12
field.modulus = a^12 + a^7 + a^6 + a^5 + a^3 + a + 1
field.generator = a
sigma.frobenius_power = 10
alpha = a
r = 0
delta = 5
"""

RATIONAL_CONFIG = """\
# distance-5 code of length 5 over F_4(z)
field.kind = rational-function
field.p = 2
field.degree = 2
field.modulus = a^2 + a + 1
field.generator = a
field.variable = z
sigma.mobius = 1, a, 1, a^2
alpha = z
r = 0
delta = 5
"""

CYCLOTOMIC_CONFIG = """\
# distance-5 code of length 6 over the 7th cyclotomic field
field.kind = cyclotomic
cyclotomic.order = 7
cyclotomic.symbol = chi
sigma.exponent = 3
alpha = chi
r = 0
delta = 5
"""


# ---------------------------------------------------------------------------
# element drawers: a spec is a small tuple of ints; ``element`` turns it
# into a field element and ``text`` into the parser's grammar
# ---------------------------------------------------------------------------

class BinaryFieldDrawer:
    """Uniform elements of GF(2^d); the spec is the packed coefficient int."""

    def __init__(self, degree, symbol="a"):
        self.degree = degree
        self.symbol = symbol

    def draw(self, rng):
        return rng.getrandbits(self.degree)

    @staticmethod
    def is_zero(spec):
        return spec == 0

    def element(self, ctx, spec):
        return ctx.element(spec)

    def text(self, spec):
        return _binary_poly_text(spec, self.symbol)


def _binary_poly_text(v, sym):
    if v == 0:
        return "0"
    terms = []
    for i in reversed(range(v.bit_length())):
        if v >> i & 1:
            terms.append("1" if i == 0 else sym if i == 1 else f"{sym}^{i}")
    return " + ".join(terms)


class RationalDrawer:
    """(c1*z + c0)/(d1*z + d0) over F_4; the spec is (c1, c0, d1, d0)."""

    def __init__(self, base_degree=2, base_symbol="a", variable="z"):
        self.base_degree = base_degree
        self.base_symbol = base_symbol
        self.variable = variable

    def draw(self, rng):
        bits = self.base_degree
        c1, c0 = rng.getrandbits(bits), rng.getrandbits(bits)
        d1 = d0 = 0
        while d1 == 0 and d0 == 0:
            d1, d0 = rng.getrandbits(bits), rng.getrandbits(bits)
        return (c1, c0, d1, d0)

    @staticmethod
    def is_zero(spec):
        return spec[0] == 0 and spec[1] == 0

    def element(self, ctx, spec):
        return parse_element(ctx, self.text(spec))

    def text(self, spec):
        c1, c0, d1, d0 = (_binary_poly_text(c, self.base_symbol) for c in spec)
        z = self.variable
        return f"(({c1})*{z} + ({c0}))/(({d1})*{z} + ({d0}))"


class CyclotomicDrawer:
    """Integer coordinates of height 4 over a denominator in 1..4; the spec
    is (n_0, ..., n_(m-2), den)."""

    def __init__(self, root_order=7, symbol="chi", height=4):
        self.dim = root_order - 1
        self.symbol = symbol
        self.height = height

    def draw(self, rng):
        h = self.height
        return tuple(rng.randint(-h, h) for _ in range(self.dim)) + (rng.randint(1, h),)

    @staticmethod
    def is_zero(spec):
        return not any(spec[:-1])

    def element(self, ctx, spec):
        return parse_element(ctx, self.text(spec))

    def text(self, spec):
        *coords, den = spec
        terms = [f"({c})" if i == 0 else
                 f"({c})*{self.symbol}" + (f"^{i}" if i > 1 else "")
                 for i, c in enumerate(coords)]
        return f"({' + '.join(terms)})/{den}"


# ---------------------------------------------------------------------------
# codes and trials
# ---------------------------------------------------------------------------

@dataclass
class CodeSpec:
    name: str
    config: str
    drawer: object


@dataclass
class Trial:
    index: int
    spec: CodeSpec
    code: object
    weight: int
    msg_specs: list
    err_specs: dict          # position -> nonzero element spec
    msg: object = None       # SkewPolynomial
    err: list = None         # length-n error vector

    @property
    def ctx(self):
        return self.code.ctx

    def materialize(self):
        """Build the message and error as field elements."""
        ctx, drawer, n = self.ctx, self.spec.drawer, self.code.n
        self.msg = SkewPolynomial(ctx, [drawer.element(ctx, s) for s in self.msg_specs])
        self.err = [ctx.zero] * n
        for pos, s in self.err_specs.items():
            self.err[pos] = drawer.element(ctx, s)
        return self

    def msg_text(self):
        return _poly_text(self.spec.drawer, dict(enumerate(self.msg_specs)))

    def err_text(self):
        return _poly_text(self.spec.drawer, self.err_specs)


def _poly_text(drawer, coeffs):
    terms = []
    for k in sorted(coeffs):
        s = coeffs[k]
        if drawer.is_zero(s):
            continue
        c = drawer.text(s)
        terms.append(f"({c})" if k == 0 else f"({c})*x" + (f"^{k}" if k > 1 else ""))
    return " + ".join(terms) if terms else "0"


def weight_for(position, t):
    """Weights cycle evenly over t+1, 0, 1, ..., t.  Starting the cycle at
    t+1 gives the weight-(t+1) class one extra trial when the list length
    is 1 mod (t+2), so the nearest-rank percentile that sits at a class
    boundary falls inside a class rather than between two."""
    return (position + t + 1) % (t + 2)


def draw_trial(workload, seed, index, codes):
    """Trial ``index`` of the seeded list; trials alternate over ``codes``,
    a list of (CodeSpec, code) pairs."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    spec, code = codes[index % len(codes)]
    drawer, n, t = spec.drawer, code.n, code.t
    weight = weight_for(index // len(codes), t)
    msg_specs = [drawer.draw(rng) for _ in range(code.dimension)]
    err_specs = {}
    for pos in sorted(rng.sample(range(n), weight)):
        s = drawer.draw(rng)
        while drawer.is_zero(s):
            s = drawer.draw(rng)
        err_specs[pos] = s
    return Trial(index=index, spec=spec, code=code, weight=weight,
                 msg_specs=msg_specs, err_specs=err_specs)


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------

@dataclass
class Workload:
    name: str
    codes: list              # CodeSpec per code, trials alternate over them
    via_cli: bool
    rate: float              # nominal trials per second (2-vCPU VM, Python 3.11)
    setup_slots: int         # set-up positions in the list; setup_s is the
                             # median over slots
    passes: int              # runs of the list in an untraced run; each trial
                             # keeps its fastest; the traced run makes one
    setup_rounds: int        # passes that make the set-ups; each slot keeps
                             # its fastest

    def list_length(self, target, t):
        """Round a target trial count to whole weight cycles (t + 2 trials)
        per code plus one extra trial per code (see ``weight_for``).  All
        codes of a workload share t."""
        per_code = target / len(self.codes)
        cycles = max(1, round(per_code / (t + 2)))
        return len(self.codes) * (cycles * (t + 2) + 1)


GF4096 = CodeSpec("gf4096", GF4096_CONFIG, BinaryFieldDrawer(12))
RATIONAL = CodeSpec("rational", RATIONAL_CONFIG, RationalDrawer())
CYCLOTOMIC = CodeSpec("cyclotomic", CYCLOTOMIC_CONFIG, CyclotomicDrawer())

WORKLOADS = {w.name: w for w in [
    Workload("gf4096-paper", [GF4096], False, rate=2600.0, setup_slots=5, passes=64,
             setup_rounds=16),
    Workload("infinite-mix", [RATIONAL, CYCLOTOMIC], False, rate=95.0, setup_slots=3,
             passes=32, setup_rounds=12),
    Workload("cli-gf4096", [GF4096], True, rate=38.0, setup_slots=5, passes=96,
             setup_rounds=8),
]}


def build_codes(workload):
    """(spec, code) for each of the workload's codes, built through the
    public config path."""
    return [(spec, code_from_config(spec.config)[1]) for spec in workload.codes]
