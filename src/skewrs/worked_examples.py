"""Bundled worked examples with every intermediate value pinned.

Three reference codes, one per field backend, are checked against frozen
transcripts.  Each scenario decodes its received word once, with the
CLI's ``decode``, and compares the report's fields with the paper; the
syndrome matrix, rho's evaluation vector and the paper's echelon-branch
matrices, which a report does not keep, are rebuilt from its fields.
``run_example`` returns a Transcript whose checks carry the expected and
computed renderings, so a mismatch pinpoints the first divergent quantity;
a check that raises ends it with one failed check.

The received words are reconstructed as codeword + error rather than
copied verbatim, and all comparisons are semantic (canonical-form
equality), never string equality.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .codes import (code_from_config, conjugate_matrix, encode, evaluate,
                    evaluation_matrix)
from .linalg import Matrix
from .parsing import parse_element, parse_poly
from .pgz import BRANCH_DIRECT, BRANCH_ECHELON, build_syndrome_matrix, decode
from .skewpoly import SkewPolynomial, twisted_shift_rows

EXAMPLE_CONFIGS = {
    1: """\
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
""",
    2: """\
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
""",
    3: """\
# distance-5 code of length 6 over the 7th cyclotomic field
field.kind = cyclotomic
cyclotomic.order = 7
cyclotomic.symbol = chi
sigma.exponent = 3
alpha = chi
r = 0
delta = 5
""",
}


@dataclass
class Check:
    label: str
    expected: str
    actual: str
    ok: bool


@dataclass
class Transcript:
    title: str
    checks: list = field(default_factory=list)

    @property
    def passed(self):
        return all(c.ok for c in self.checks)

    def compare(self, label, actual, expected):
        ok = actual == expected
        self.checks.append(Check(label, str(expected), str(actual), ok))
        return ok

    def confirm(self, label, cond, detail=""):
        self.checks.append(Check(label, "true", detail or str(bool(cond)), bool(cond)))
        return bool(cond)

    def render(self):
        lines = [self.title]
        for c in self.checks:
            mark = "PASS" if c.ok else "FAIL"
            lines.append(f"  [{mark}] {c.label}")
            if not c.ok:
                lines.append(f"         expected: {c.expected}")
                lines.append(f"         computed: {c.actual}")
        verdict = "all checks passed" if self.passed else "MISMATCH"
        lines.append(f"  => {verdict}")
        return "\n".join(lines)


def _vector(ctx, texts, symbols=None):
    return [symbols[t] if symbols and t in symbols else parse_element(ctx, t)
            for t in texts]


def _matrix(ctx, cells, symbols=None):
    return Matrix(ctx, [_vector(ctx, row, symbols) for row in cells])


def _rows_removed(h_rho):
    # the rows of H_rho that are not unit rows (one nonzero entry, a one);
    # the columns of the unit rows are the positions that hold no error
    zero, one = h_rho.ctx.zero_raw, h_rho.ctx.one_raw
    return [i for i, row in enumerate(h_rho.raw) if [v for v in row if v != zero] != [one]]


# ---------------------------------------------------------------------------
# reference transcript 1: GF(2^12), n = 6, delta = 5
# ---------------------------------------------------------------------------

_EX1_N = [
    ["1", "1", "1", "1", "1", "1"],
    ["a^1023", "a^3327", "a^3903", "a^4047", "a^4083", "a^4092"],
    ["a^255", "a^3135", "a^3855", "a^4035", "a^4080", "a^1020"],
    ["a^63", "a^3087", "a^3843", "a^4032", "a^1008", "a^252"],
    ["a^15", "a^3075", "a^3840", "a^960", "a^240", "a^60"],
    ["a^3", "a^3072", "a^768", "a^192", "a^48", "a^12"],
]

_EX1_SCENARIOS = [
    {
        "error": "a^2 + a^3x^3",
        "syndrome_matrix": [["a^3170", "a^2390"], ["a^2645", "a^428"], ["a^107", "a^248"]],
        "rcef": [["1", "0"], ["0", "1"], ["a^1950", "a^3315"]],
        "mu": 2,
        "rho": "x^2 + a^3315x + a^1950",
        "rho_eval": ["0", "a^210", "a^2685", "0", "a^1155", "a^3945"],
        "branch": BRANCH_DIRECT,
        "positions": [0, 3],
        "values": ["a^2", "a^3"],
    },
    {
        "error": "a^2 + a^1367x^3",
        "syndrome_matrix": [["a^59", "a^65"], ["a^1040", "a^1046"], ["a^2309", "a^2315"]],
        "rcef": [["1", "0"], ["a^981", "0"], ["a^2250", "0"]],
        "mu": 1,
        "rho": "x + a^981",
        "rho_eval": ["a^1437", "a^1281", "a^4053", "a^9", "a^3149", "a^3853"],
        "branch": BRANCH_ECHELON,
        "shift_matrix": [
            ["a^981", "1", "0", "0", "0", "0"],
            ["0", "a^1269", "1", "0", "0", "0"],
            ["0", "0", "a^1341", "1", "0", "0"],
            ["0", "0", "0", "a^1359", "1", "0"],
            ["0", "0", "0", "0", "a^3411", "1"],
        ],
        "shift_eval": [
            ["a^1437", "a^1281", "a^4053", "a^9", "a^3149", "a^3853"],
            ["a^2406", "a^576", "a^1845", "a^978", "a^1799", "a^1984"],
            ["a^3672", "a^3471", "a^1293", "a^2244", "a^3509", "a^493"],
            ["a^1941", "a^3171", "a^1155", "a^513", "a^1889", "a^1144"],
            ["a^2532", "a^3096", "a^3168", "a^1104", "a^1484", "a^283"],
        ],
        "row_echelon": [
            ["1", "0", "0", "a^2667", "0", "0"],
            ["0", "1", "0", "0", "0", "0"],
            ["0", "0", "1", "0", "0", "0"],
            ["0", "0", "0", "0", "1", "0"],
            ["0", "0", "0", "0", "0", "1"],
        ],
        "removed_rows": [0],
        "positions": [0, 3],
        "values": ["a^2", "a^1367"],
    },
]


def _seed_checks(t, ctx, code, report, expected):
    # returns rho's evaluation vector, which each example checks its own way
    st = build_syndrome_matrix(code, report.syndromes)
    t.compare("syndrome matrix", st, _matrix(ctx, expected["syndrome_matrix"]))
    t.compare("column echelon form", st.rcef(), _matrix(ctx, expected["rcef"]))
    t.compare("rank of syndrome matrix", report.mu, expected["mu"])
    t.compare("locator seed", report.rho, parse_poly(ctx, expected["rho"]))
    return evaluate(code, report.rho.vector(code.n), code.n, code.r)


def _echelon_checks(t, ctx, code, rho, expected):
    # the paper's echelon branch, M_rho to H_rho, which decode does not build
    m_rho = Matrix(ctx, twisted_shift_rows(rho, code.n))
    t.compare("shift matrix of the seed", m_rho, _matrix(ctx, expected["shift_matrix"]))
    n_rho = m_rho * evaluation_matrix(code)
    if "shift_eval" in expected:
        t.compare("evaluated shift matrix", n_rho, _matrix(ctx, expected["shift_eval"]))
    h_rho = n_rho.rref()
    t.compare("row echelon form", h_rho, _matrix(ctx, expected["row_echelon"]))
    t.compare("rows removed", _rows_removed(h_rho), expected["removed_rows"])


def _outcome_checks(t, ctx, code, report, err, expected):
    positions = report.positions
    t.compare("error positions", positions, expected["positions"])
    if "value_system" in expected:
        t.compare("value system matrix", conjugate_matrix(ctx, code.conj, positions, len(positions)),
                  _matrix(ctx, expected["value_system"]))
    t.compare("error values", report.values, _vector(ctx, expected["values"]))
    t.confirm("decode verification", report.ok, report.failure or "ok")
    t.compare("recovered error", SkewPolynomial(ctx, report.error), err)


def _scenario_checks(t, ctx, code, cw, scenario):
    err = parse_poly(ctx, scenario["error"])
    report = decode(code, (cw + err).vector(code.n))
    rho_eval = _seed_checks(t, ctx, code, report, scenario)
    t.compare("locator evaluation vector", rho_eval, _vector(ctx, scenario["rho_eval"]))
    t.compare("branch", report.branch, scenario["branch"])
    if "shift_matrix" in scenario:
        _echelon_checks(t, ctx, code, report.rho, scenario)
    _outcome_checks(t, ctx, code, report, err, scenario)
    return report


def _example_1_checks(t):
    ctx, code = code_from_config(EXAMPLE_CONFIGS[1])
    a = ctx.generator
    t.compare("sigma(a)", ctx.sigma(a), a ** 1024)
    t.compare("beta", code.beta, a ** 1023)
    t.compare("beta conjugates", [ctx.sigma(code.beta, k) for k in range(6)],
              _vector(ctx, _EX1_N[1]))
    t.compare("evaluation matrix", evaluation_matrix(code), _matrix(ctx, _EX1_N))
    t.compare("generator", code.g,
              parse_poly(ctx, "x^4 + a^2103x^3 + a^687x^2 + a^1848x + a^759"))
    msg = parse_poly(ctx, "x + a")
    cw = encode(code, msg)
    t.compare("codeword", cw,
              parse_poly(ctx, "x^5 + a^3953x^4 + a^1333x^3 + a^2604x^2 + a^1596x + a^760"))
    for idx, scenario in enumerate(_EX1_SCENARIOS, start=1):
        t.checks.append(Check(f"--- scenario {idx} ---", "", "", True))
        report = _scenario_checks(t, ctx, code, cw, scenario)
        if report.ok:
            t.compare(f"scenario {idx} recovered message", report.message, msg)


# ---------------------------------------------------------------------------
# reference transcript 2: F_4(z), n = 5, delta = 5
# ---------------------------------------------------------------------------

_EX2_N = [
    ["1", "1", "1", "1", "1"],
    ["(z+a)/(z^2+a^2z)", "(a^2z^2+z+a)/(az^2+a^2z)", "z/(z^2+a^2z+a)",
     "(z^2+z+1)/(a^2z+a^2)", "(z^2+z)/(a^2z+a)"],
    ["(az+a)/z^2", "(a^2z+a)/(az^2+1)", "(z^2+a^2z)/(a^2z^2+a^2)",
     "a^2z^2+z", "(z^2+a^2z+a)/(a^2z^2+1)"],
    ["a^2/(az^2+a^2z)", "(a^2z^2+1)/(z^2+a^2z+a)", "z^2/(az+a)",
     "(a^2z^2+a)/(z+a^2)", "(a^2z^2+a^2)/(z^2+a^2z)"],
    ["(a^2z+a)/(z^2+z)", "(a^2z^2+az)/(a^2z+1)", "(z^2+az)/(az^2+a^2z+1)",
     "(az^2+z+a^2)/(az)", "(a^2z+a^2)/(z^2+z+1)"],
]

_EX2 = {
    "beta": "(z+a)/(z^2+a^2z)",
    "generator": ("x^4 + ((z+a)/(z^5+a^2z))x^3"
                  " + ((az^5+a^2z^4+az+a^2)/(z^5+a^2z^4+a^2z+a))x^2"
                  " + ((a^2z^5+z^4+z+a)/(z^4+a^2))x"
                  " + (az^5+a^2z^4)/(a^2z^5+a^2z^4+az+a)"),
    "error": "(a/(z^5+a^2z))x^3 + (1/(z^5+a^2z))x",
    "received": ("x^4 + (1/(z^4+a^2))x^3"
                 " + ((az^5+a^2z^4+az+a^2)/(z^5+a^2z^4+a^2z+a))x^2"
                 " + ((a^2z^6+z^5+z^2+az+1)/(z^5+a^2z))x"
                 " + (az^5+a^2z^4)/(a^2z^5+a^2z^4+az+a)"),
    "syndrome_matrix": [
        ["(a^2z^2+az+a^2)/(a^2z^7+a^2z^6+a^2z^5+az^3+az^2+az)",
         "(az^7+a^2z^6+a^2z^5+az^4+az^3+a^2z^2+a^2z+a)/(z^3+az^2+az+a^2)"],
        ["(z^2+z+a^2)/(az^7+az^6+z^3+z^2)",
         "(az^6+az^5+z^4+az^2+az+1)/(az^2+z)"],
        ["(a^2z^2+z+a^2)/(az^6+a^2z^5+z^2+az)",
         "(az^7+z^6+z^5+az^4+az^3+z^2+z+a)/(a^2z^2+a^2z+a^2)"],
    ],
    "rcef": [
        ["1", "0"],
        ["(a^2z^4+az^2+z+a)/(z^4+az^3+az^2+z)", "0"],
        ["(az^3+az^2+1)/(z^2+a^2z+1)", "0"],
    ],
    "mu": 1,
    "rho": "x + (a^2z^4+az^2+z+a)/(z^4+az^3+az^2+z)",
    "shift_matrix": [
        ["(a^2z^4+az^2+z+a)/(z^4+az^3+az^2+z)", "1", "0", "0", "0"],
        ["0", "(az^4+z^3+z^2+az)/(a^2z^3+az^2+a^2z+a^2)", "1", "0", "0"],
        ["0", "0", "(a^2z^3+az^2+a)/(z^4+z^2+a^2z+a^2)", "1", "0"],
        ["0", "0", "0", "(a^2z^4+a^2z^3+a^2z^2+az+1)/(a^2z^3+a^2z^2+z)", "1"],
    ],
    "row_echelon": [
        ["1", "0", "0", "0", "0"],
        ["0", "1", "0", "(az^2+1)/(z+a^2)", "0"],
        ["0", "0", "1", "0", "0"],
        ["0", "0", "0", "0", "1"],
    ],
    "removed_rows": [1],
    "positions": [1, 3],
    "value_system": [["(z+a)/(z+a^2)", "(az+a)/z"], ["a/(z+a)", "(a^2z+a)/(z+1)"]],
    "values": ["1/(z^5+a^2z)", "a/(z^5+a^2z)"],
}


def _example_2_checks(t):
    ctx, code = code_from_config(EXAMPLE_CONFIGS[2])
    t.compare("beta", code.beta, parse_element(ctx, _EX2["beta"]))
    t.compare("evaluation matrix", evaluation_matrix(code), _matrix(ctx, _EX2_N))
    t.compare("generator", code.g, parse_poly(ctx, _EX2["generator"]))
    err = parse_poly(ctx, _EX2["error"])
    y_poly = code.g + err
    t.compare("received word", y_poly, parse_poly(ctx, _EX2["received"]))
    report = decode(code, y_poly.vector(code.n))
    rho_eval = _seed_checks(t, ctx, code, report, _EX2)
    t.confirm("locator evaluation vector has no zero", all(bool(v) for v in rho_eval))
    _echelon_checks(t, ctx, code, report.rho, _EX2)
    t.compare("branch", report.branch, BRANCH_ECHELON)
    _outcome_checks(t, ctx, code, report, err, _EX2)
    t.compare("recovered message", report.message, SkewPolynomial(ctx, (ctx.one,)))


# ---------------------------------------------------------------------------
# reference transcript 3: Q(chi), chi^7 = 1, n = 6, delta = 5
# ---------------------------------------------------------------------------

_EX3_N = [
    ["1", "1", "1", "1", "1", "1"],
    ["chi^2", "b", "chi^4", "chi^5", "chi", "chi^3"],
    ["chi", "chi^3", "chi^2", "b", "chi^4", "chi^5"],
    ["chi^5", "chi", "chi^3", "chi^2", "b", "chi^4"],
    ["chi^3", "chi^2", "b", "chi^4", "chi^5", "chi"],
    ["chi^4", "chi^5", "chi", "chi^3", "chi^2", "b"],
]

_EX3 = {
    "generator_scaled": ("2x^4 + (-chi^5 - chi^3 - chi^2)x^3 + (chi^3 + chi + 1)x^2"
                         " + (chi^5 + chi^4 + 1)x + chi^5 - chi^2 + chi + 1"),
    "received": ("2x^4 + (-chi^5 - chi^3 - chi^2)x^3 + (chi^3 + 2chi + 1)x^2"
                 " + (chi^5 + chi^4 + 1)x + chi^5 - chi^2 + chi + 1"),
    "error": "chi*x^2",
    "syndrome_matrix": [["chi^3", "1"], ["1", "chi^4"], ["chi^5", "chi^2"]],
    "rcef": [["1", "0"], ["chi^4", "0"], ["chi^2", "0"]],
    "mu": 1,
    "rho": "x - chi^4",
    "rho_eval": ["-chi^4 + chi^2", "-chi^5 - 2chi^4 - chi^3 - chi^2 - chi - 1",
                 "0", "chi^5 - chi^4", "-chi^4 + chi", "-chi^4 + chi^3"],
    "branch": BRANCH_DIRECT,
    "positions": [2],
    "values": ["chi"],
}


def _example_3_checks(t):
    ctx, code = code_from_config(EXAMPLE_CONFIGS[3])
    chi = ctx.generator
    t.compare("beta", code.beta, chi ** 2)
    g_scaled = parse_poly(ctx, _EX3["generator_scaled"])
    two = SkewPolynomial(ctx, (ctx.from_int(2),))
    t.compare("generator up to a left scalar", two * code.g, g_scaled)
    b = parse_element(ctx, "-chi^5 - chi^4 - chi^3 - chi^2 - chi - 1")
    t.compare("evaluation matrix", evaluation_matrix(code), _matrix(ctx, _EX3_N, symbols={"b": b}))
    t.compare("received word", g_scaled + parse_poly(ctx, _EX3["error"]),
              parse_poly(ctx, _EX3["received"]))
    # the received word is the codeword 2 * g plus the error
    report = _scenario_checks(t, ctx, code, g_scaled, _EX3)
    t.compare("recovered message", report.message, two)


_EXAMPLES = {
    1: ("worked example 1: GF(2^12), n=6, delta=5, two errors", _example_1_checks),
    2: ("worked example 2: F_4(z), n=5, delta=5, two errors, echelon branch", _example_2_checks),
    3: ("worked example 3: Q(chi), n=6, delta=5, single error", _example_3_checks),
}


def run_example(which):
    """Check one bundled worked example; returns its Transcript, which ends
    in one failed check that names the exception if a check raises."""
    if which not in _EXAMPLES:
        raise ValueError(f"no worked example {which}; choose from 1, 2, 3")
    title, checks = _EXAMPLES[which]
    t = Transcript(title)
    try:
        checks(t)
    except Exception as exc:   # e.g. a failed report, which has no rho or error
        t.confirm("no check raises", False, f"{type(exc).__name__}: {exc}")
    return t
