import itertools

import pytest

from skewrs import fields, pgz
from skewrs import (BRANCH_ALL_ZERO, BRANCH_DIRECT, BRANCH_ECHELON,
                    FieldError, FiniteField, Matrix, RationalFunctions, SkewPolynomial,
                    build_code, build_syndrome_matrix, decode, encode, error_values,
                    evaluate, find_normal_element, is_normal, left_divmod,
                    locate_positions, parse_poly, solve_row_system, syndromes)
from skewrs.cli import error_pattern_equivalence, simulate
from skewrs.fields import FieldContext

from conftest import GF4096_MODULUS, rng_for, random_poly
from oracles import (contains, decode_by_stages, identity, nearest_codeword_equivalence,
                     norm_column, over_product_denominator, right_eval)


def make_received(code, msg, error_vec):
    cw = encode(code, msg).vector(code.n)
    return [a + b for a, b in zip(cw, error_vec)]


def random_error(code, rng, weight):
    ctx = code.ctx
    vec = [ctx.zero] * code.n
    for pos in rng.sample(range(code.n), weight):
        vec[pos] = ctx.random_nonzero(rng)
    return vec


def syndromes_by_remainder(code, y):
    """The syndromes as right evaluations of y at sigma^(r+i)(beta); oracle
    for the conjugate-sum formula used by ``syndromes``."""
    ctx = code.ctx
    f = SkewPolynomial(ctx, y)
    return [right_eval(f, ctx.sigma(code.beta, code.r + i)) for i in range(2 * code.t)]


# -- syndromes -----------------------------------------------------------------

def test_codeword_has_zero_syndromes(all_codes):
    for name, code in all_codes.items():
        rng = rng_for(f"cw-{name}")
        msg = random_poly(code.ctx, rng, code.n - code.delta)
        s = syndromes(code, encode(code, msg).vector(code.n))
        assert all(not si for si in s)


def test_syndrome_formulas_agree(all_codes):
    # conjugate-sum route vs norm-column route
    for name, code in all_codes.items():
        rng = rng_for(f"sform-{name}")
        for _ in range(20):
            y = [code.ctx.random_element(rng) for _ in range(code.n)]
            assert syndromes(code, y) == syndromes_by_remainder(code, y)


def test_single_error_syndromes_are_norms(code_gf):
    ctx = code_gf.ctx
    rng = rng_for("single")
    for k in range(code_gf.n):
        v = ctx.random_nonzero(rng)
        e = [ctx.zero] * code_gf.n
        e[k] = v
        s = syndromes(code_gf, e)
        norms = [norm_column(ctx.sigma(code_gf.beta, code_gf.r + i), code_gf.n)
                 for i in range(2 * code_gf.t)]
        assert s == [v * norms[i][k] for i in range(2 * code_gf.t)]


def test_raw_stages_reject_a_foreign_field(code_gf, gf4096, gf16):
    # the stages compute on raw values, so they check contexts themselves
    with pytest.raises(FieldError):
        evaluate(code_gf, [gf16.one] * code_gf.n, 2, 0)
    with pytest.raises(FieldError):
        build_syndrome_matrix(code_gf, [gf16.one] * (2 * code_gf.t))
    with pytest.raises(FieldError):
        locate_positions(code_gf, 1, SkewPolynomial(gf16, [gf16.one, gf16.one]))
    with pytest.raises(FieldError):
        Matrix(gf4096, [[gf4096.one, gf16.one]])
    with pytest.raises(FieldError):
        solve_row_system(identity(gf4096, 1), [gf16.one])


@pytest.mark.parametrize("case", ["matrix-product", "matrix-product-reversed", "sigma",
                                  "build-code", "is-normal"])
def test_values_reject_a_foreign_operand(gf4096, gf16, case):
    # a GF(2^12) element whose raw value is past GF(16)'s tables
    x = gf4096.generator ** 100
    act = {
        "matrix-product": lambda: Matrix(gf16, [[gf16.one]]) * Matrix(gf4096, [[x]]),
        "matrix-product-reversed": lambda: Matrix(gf4096, [[x]]) * Matrix(gf16, [[gf16.one]]),
        "sigma": lambda: gf16.sigma(x),
        "build-code": lambda: build_code(gf16, x, 0, 2),
        "is-normal": lambda: is_normal(gf16, x),
    }[case]
    with pytest.raises(FieldError):
        act()


def test_syndromes_reject_wrong_length(code_gf):
    with pytest.raises(ValueError):
        syndromes(code_gf, [code_gf.ctx.zero] * 3)


@pytest.mark.parametrize("positions, match", [([0, 1, 2, 3, 4], "5 positions need as many"),
                                              ([7], "must lie in 0..5"), ([-1], "must lie in 0..5")])
def test_error_values_refuse_positions_the_syndromes_cannot_solve(code_gf, positions, match):
    ctx = code_gf.ctx
    s = syndromes(code_gf, [ctx.one] + [ctx.zero] * (code_gf.n - 1))
    with pytest.raises(ValueError, match=match):
        error_values(code_gf, positions, s)


@pytest.mark.parametrize("case", ["length", "degree", "context", "not-iterable", "none"])
def test_decode_reports_malformed_words(code_gf, gf16, case):
    ctx, n = code_gf.ctx, code_gf.n
    word = {
        "length": [ctx.zero] * 3,
        "degree": SkewPolynomial(ctx, [ctx.one] * (n + 1)),
        "context": [gf16.one] * n,
        "not-iterable": 5,
        "none": None,
    }[case]
    report = decode(code_gf, word)
    assert not report.ok and report.branch is None and report.syndromes == []
    assert report.failure.startswith("invalid received word:")
    assert "\n" not in report.failure


def test_zero_syndrome_matrix(code_gf):
    s = [code_gf.ctx.zero] * (2 * code_gf.t)
    st = build_syndrome_matrix(code_gf, s)
    assert all(not v for row in st.rows for v in row)


def test_zero_remainder_forces_zero_syndromes(all_codes, gf4096):
    # decode verifies by the division alone: g right-dividing a word must
    # make all 2t syndromes vanish, also for r > 0 and for even delta,
    # where g has one more linear factor than there are syndromes
    codes = dict(all_codes)
    codes["offset-even"] = build_code(gf4096, gf4096.generator, 2, 4)
    codes["full-length"] = build_code(gf4096, gf4096.generator, 1, 6)
    for name, code in codes.items():
        ctx = code.ctx
        rng = rng_for(f"verify-{name}")
        divisible = 0
        for i in range(40):
            msg = random_poly(ctx, rng, code.n - code.delta)
            y = make_received(code, msg, random_error(code, rng, i % (code.t + 2)))
            rem = left_divmod(SkewPolynomial(ctx, y), code.g)[1]
            if rem.is_zero:
                divisible += 1
                assert all(not si for si in syndromes(code, y))
        assert divisible >= 10


# -- decode: exact recovery ------------------------------------------------------

@pytest.mark.parametrize("name", ["gf4096", "rational", "cyclotomic"])
def test_random_recovery_up_to_capability(all_codes, name):
    code = all_codes[name]
    ctx = code.ctx
    rng = rng_for(f"recover-{name}")
    rounds = 200 if name == "gf4096" else 50
    for i in range(rounds):
        msg = random_poly(ctx, rng, code.n - code.delta)
        err = random_error(code, rng, rng.randint(0, code.t))
        report = decode(code, make_received(code, msg, err))
        assert report.ok, report.failure
        assert report.error == err
        assert report.message == msg
        nu = len(report.positions)
        assert report.mu <= nu <= code.t or report.branch == BRANCH_ALL_ZERO


def test_no_error_round_trip(all_codes):
    for code in all_codes.values():
        rng = rng_for("noerr")
        msg = random_poly(code.ctx, rng, code.n - code.delta)
        report = decode(code, encode(code, msg).vector(code.n))
        assert report.ok and report.branch == BRANCH_ALL_ZERO
        assert all(not v for v in report.error)
        assert report.message == msg


def test_weight_one_errors_take_direct_branch(all_codes):
    for name, code in all_codes.items():
        rng = rng_for(f"w1-{name}")
        for _ in range(40):
            msg = random_poly(code.ctx, rng, code.n - code.delta)
            err = random_error(code, rng, 1)
            report = decode(code, make_received(code, msg, err))
            assert report.ok
            assert report.mu == 1 and len(report.positions) == 1
            assert report.branch == BRANCH_DIRECT


def test_fixed_field_values_force_echelon_branch(code_gf):
    # two equal error values collapse the rank of the syndrome system
    ctx = code_gf.ctx
    rng = rng_for("echelon-forced")
    for _ in range(20):
        msg = random_poly(ctx, rng, code_gf.n - code_gf.delta)
        v = ctx.random_nonzero(rng)
        err = [ctx.zero] * code_gf.n
        p1, p2 = rng.sample(range(code_gf.n), 2)
        err[p1] = err[p2] = v
        report = decode(code_gf, make_received(code_gf, msg, err))
        assert report.ok and report.error == err
        assert report.branch == BRANCH_ECHELON
        assert report.mu == 1 and len(report.positions) == 2
        # branch soundness: the seed's direct root count differs from mu
        rho_eval = evaluate(code_gf, report.rho.vector(code_gf.n), code_gf.n, code_gf.r)
        zeros = [w for w in rho_eval if not w]
        assert len(zeros) != report.mu


def test_reference_two_error_decode(code_gf, gf4096):
    msg = parse_poly(gf4096, "x + a")
    err_poly = parse_poly(gf4096, "a^2 + a^3x^3")
    y = (encode(code_gf, msg) + err_poly).vector(6)
    report = decode(code_gf, y)
    assert report.ok
    assert report.positions == [0, 3]
    assert report.branch == BRANCH_DIRECT
    assert SkewPolynomial(gf4096, report.error) == err_poly
    assert report.message == msg


def test_reference_echelon_decode(code_gf, gf4096):
    msg = parse_poly(gf4096, "x + a")
    err_poly = parse_poly(gf4096, "a^2 + a^1367x^3")
    y = (encode(code_gf, msg) + err_poly).vector(6)
    report = decode(code_gf, y)
    assert report.ok
    assert report.branch == BRANCH_ECHELON
    assert report.mu == 1
    assert report.rho == parse_poly(gf4096, "x + a^981")
    assert report.positions == [0, 3]
    assert SkewPolynomial(gf4096, report.error) == err_poly


def test_decode_with_nonzero_offset(gf4096):
    code = build_code(gf4096, gf4096.generator, 3, 5)
    rng = rng_for("offset")
    for _ in range(50):
        msg = random_poly(gf4096, rng, code.n - code.delta)
        err = random_error(code, rng, rng.randint(0, code.t))
        report = decode(code, make_received(code, msg, err))
        assert report.ok and report.error == err and report.message == msg


def test_detect_only_code(gf4096):
    # delta = 2 gives t = 0: no correction, but codewords pass through
    code = build_code(gf4096, gf4096.generator, 0, 2)
    rng = rng_for("detect")
    msg = random_poly(gf4096, rng, code.n - code.delta)
    report = decode(code, encode(code, msg).vector(code.n))
    assert report.ok and report.message == msg
    bad = encode(code, msg) + SkewPolynomial(gf4096, (gf4096.one,))
    report = decode(code, bad.vector(code.n))
    assert not report.ok


# -- beyond capability ------------------------------------------------------------

@pytest.mark.parametrize("name", ["gf4096", "rational", "cyclotomic"])
def test_beyond_capability_never_invents_noncodeword(all_codes, name):
    code = all_codes[name]
    ctx = code.ctx
    rng = rng_for(f"beyond-{name}")
    rounds = 60 if name == "gf4096" else 15
    explicit_failures = 0
    for _ in range(rounds):
        msg = random_poly(ctx, rng, code.n - code.delta)
        err = random_error(code, rng, code.t + 1)
        report = decode(code, make_received(code, msg, err))
        if report.ok:
            # a miscorrection must still land on a codeword within capability
            assert sum(1 for v in report.error if v) <= code.t
            assert contains(code, SkewPolynomial(ctx, report.codeword))
        else:
            explicit_failures += 1
    assert explicit_failures > 0


def test_failed_reports_carry_the_branch_they_reached(code_gf, gf4096, gf16):
    rng = rng_for("failed-branch")
    searched = 0
    for _ in range(30):
        msg = random_poly(gf4096, rng, code_gf.n - code_gf.delta)
        report = decode(code_gf, make_received(code_gf, msg, random_error(code_gf, rng, 3)))
        if report.failure and report.failure.startswith("position search"):
            searched += 1
            assert report.branch == BRANCH_ECHELON
            assert "branch = echelon" in report.to_text(gf4096)
    assert searched > 0
    # a t = 1 code whose first syndrome vanishes has no identity block in
    # its column echelon form, so decoding stops before choosing a branch
    code = build_code(gf16, find_normal_element(gf16), 0, 3)
    rng = rng_for("no-branch")
    stopped = 0
    for _ in range(100):
        report = decode(code, [gf16.random_element(rng) for _ in range(code.n)])
        if report.failure and report.failure.startswith("locator extraction"):
            stopped += 1
            assert report.branch is None
            assert "branch =" not in report.to_text(gf16)
    assert stopped > 0


# -- exhaustive oracle comparison ---------------------------------------------------

def test_decoder_matches_nearest_codeword_search(gf16, gf8):
    code = build_code(gf16, find_normal_element(gf16), 0, 3)
    assert nearest_codeword_equivalence(code) == 0
    small = build_code(gf8, find_normal_element(gf8), 0, 3)
    assert nearest_codeword_equivalence(small) == 0


# GF(q) modulus, sigma's order n = d, designed distance, offset r, and the
# number of error patterns of weight <= t
ERROR_BALL_CODES = [
    (3, 3, "a^3 + 2a + 1", 3, 0, 79),
    (3, 4, "a^4 + 2a^3 + 2", 3, 1, 321),
    (3, 4, "a^4 + 2a^3 + 2", 4, 0, 321),
    (2, 6, "a^6 + a + 1", 3, 0, 379),
    (2, 5, "a^5 + a^2 + 1", 5, 0, 9766),
    (3, 2, "a^2 + 1", 2, 0, 1),
]


@pytest.mark.parametrize("p, d, modulus, delta, r, patterns", ERROR_BALL_CODES,
                         ids=["gf27-delta3", "gf81-delta3-r1", "gf81-delta4", "gf64-delta3",
                              "gf32-delta5", "gf9-delta2"])
def test_every_error_of_weight_at_most_t_is_corrected(p, d, modulus, delta, r, patterns):
    # odd p, r > 0, delta = 2 and delta = n between them; the received word
    # is the error itself, on the zero codeword
    ctx = FiniteField(p, d, modulus, frobenius_power=1)
    code = build_code(ctx, find_normal_element(ctx), r, delta)
    nonzero = [e for e in ctx.elements() if e]
    count = 0
    for w in range(code.t + 1):
        for positions in itertools.combinations(range(code.n), w):
            for values in itertools.product(nonzero, repeat=w):
                e = [ctx.zero] * code.n
                for k, v in zip(positions, values):
                    e[k] = v
                report = decode(code, e)
                assert report.ok and report.error == e, (positions, values)
                assert not any(report.codeword) and report.message.is_zero
                count += 1
    assert count == patterns
    assert error_pattern_equivalence(code) == 0


SHIFT_FIELDS = ("syndromes", "ok", "failure", "branch", "mu", "rho", "positions", "values",
                "error")


@pytest.mark.parametrize("name", ["gf4096", "rational", "cyclotomic", "gf81"])
def test_adding_a_codeword_shifts_only_the_codeword_and_message(all_codes, name):
    # the syndromes are linear and vanish on codewords, so decode(c + e)
    # reaches decode(e)'s verdict and adds c to its codeword, c's message
    # to its message; every error weight from 0 to t + 1
    if name == "gf81":
        ctx = FiniteField(3, 4, "a^4 + 2a^3 + 2", frobenius_power=1)
        code = build_code(ctx, find_normal_element(ctx), 1, 3)
    else:
        code = all_codes[name]
    ctx, n = code.ctx, code.n
    rng = rng_for(f"shift-{name}")
    for weight in range(code.t + 2):
        for _ in range(12):
            msg = random_poly(ctx, rng, n - code.delta)
            c = encode(code, msg).vector(n)
            e = random_error(code, rng, weight)
            plain = decode(code, e)
            shifted = decode(code, [a + b for a, b in zip(c, e)])
            for key in SHIFT_FIELDS:
                assert getattr(shifted, key) == getattr(plain, key), (weight, key)
            if plain.ok:
                assert shifted.codeword == [a + b for a, b in zip(c, plain.codeword)]
                assert shifted.message == msg + plain.message


# -- the raw pipeline against the stage-by-stage oracle ---------------------------

@pytest.fixture(scope="module")
def oracle_contexts(all_contexts, gf16):
    """The three backends, GF(3^4), GF(9)(z) with sigma(z) = (z + a)/z, and
    GF(2^4), whose t = 1 codes often meet a first syndrome of zero."""
    gf9 = FiniteField(3, 2, "a^2 + 1", frobenius_power=0)
    return dict(all_contexts, gf16=gf16,
                gf81=FiniteField(3, 4, "a^4 + 2a^3 + 2", frobenius_power=1),
                gf9z=RationalFunctions(gf9, ("1", "a", "1", "0")))


# random words per (r, delta, weight), fewer where a decode is slow
ORACLE_WORDS = {"gf4096": 6, "rational": 2, "cyclotomic": 2, "gf81": 8, "gf9z": 1,
                "gf16": 8}


@pytest.mark.parametrize("name", sorted(ORACLE_WORDS))
def test_decode_equals_the_stage_by_stage_oracle(oracle_contexts, name):
    # every report field and the report text, for every delta in [2, n],
    # r in {0, 1, n-1, n+2} and error weight 0..n on a random codeword
    ctx = oracle_contexts[name]
    n, alpha = ctx.order, find_normal_element(ctx)
    rng = rng_for(f"stage-oracle-{name}")
    reasons = set()   # the failure reasons reached, None for success
    for r in (0, 1, n - 1, n + 2):
        for delta in range(2, n + 1):
            code = build_code(ctx, alpha, r, delta)
            for weight in range(n + 1):
                for _ in range(ORACLE_WORDS[name]):
                    msg = random_poly(ctx, rng, n - delta)
                    y = make_received(code, msg, random_error(code, rng, weight))
                    report, expected = decode(code, y), decode_by_stages(code, y)
                    assert report == expected, (r, delta, y)
                    assert report.to_text(ctx) == expected.to_text(ctx)
                    reasons.add(report.failure.split(":")[0] if report.failure else None)
    assert None in reasons and len(reasons) > 2


# GF(2^4) with sigma = Frobenius, alpha = a^11 and r = 0: a raw word for
# each failure reason that decode can reach, and its exact report
FAILURE_WORDS = [
    (3, [3, 9, 4, 9], [
        "status = failed",
        "failure = locator extraction failed: echelon form lacks the identity block",
        "syndromes = 0; a", "mu = 0", "positions = ", "values = "]),
    (3, [15, 3, 6, 12], [
        "status = failed", "failure = 3 candidate error positions exceed capability t=1",
        "syndromes = a^11; a^3", "mu = 1", "rho = x + a^3", "branch = echelon",
        "positions = 0, 1, 3", "values = "]),
    (3, [14, 2, 12, 15], [
        "status = failed",
        "failure = position search failed: no canonical rows survive the echelon reduction",
        "syndromes = a; a^5", "mu = 1", "rho = x + 1", "branch = echelon", "positions = ",
        "values = "]),
    (2, [6, 12, 11, 13], [
        "status = failed", "failure = generator does not divide the corrected word",
        "syndromes = ", "mu = 0", "branch = all-zero", "positions = ", "values = "]),
]


@pytest.mark.parametrize("delta, word, lines", FAILURE_WORDS,
                         ids=["identity-block", "capability", "position-search", "verify"])
def test_each_reachable_failure_reason_keeps_its_report(gf16, delta, word, lines):
    code = build_code(gf16, gf16.generator ** 11, 0, delta)
    y = [gf16.element(v) for v in word]
    text = "\n".join(lines) + "\n"
    assert decode(code, y).to_text(gf16) == text
    assert decode_by_stages(code, y).to_text(gf16) == text


# each stage that can raise, its report prefix, and the report fields that
# the stages before it write
PLANTED_STAGES = [("_locator_seed", "locator extraction", ()),
                  ("locate_positions", "position search", ("mu", "rho")),
                  ("_error_values", "value solve", ("mu", "rho", "branch", "positions"))]


@pytest.mark.parametrize("error", [ValueError, FieldError])
@pytest.mark.parametrize("name, stage, kept", PLANTED_STAGES,
                         ids=[name for name, _, _ in PLANTED_STAGES])
@pytest.mark.parametrize("code_name", ["gf4096", "rational", "cyclotomic"])
def test_a_fault_planted_in_a_stage_returns_its_report(all_codes, code_name, name, stage,
                                                       kept, error, monkeypatch):
    code = all_codes[code_name]
    rng = rng_for(f"planted-{code_name}")
    y = make_received(code, random_poly(code.ctx, rng, code.dimension - 1),
                      random_error(code, rng, code.t))
    clean = decode(code, y)
    assert clean.ok

    def planted(*args):
        raise error("planted")

    monkeypatch.setattr(pgz, name, planted)
    report = decode(code, y)
    earlier = {"branch": None, **{f: getattr(clean, f) for f in kept}}
    assert report == pgz.DecodeReport(syndromes=clean.syndromes,
                                      failure=f"{stage} failed: planted", **earlier)


def test_locate_failure_is_a_value_error_raised_by_name(gf16):
    assert issubclass(pgz.LocateFailure, ValueError)
    # FAILURE_WORDS' position-search word: no canonical rows survive
    code = build_code(gf16, gf16.generator ** 11, 0, 3)
    y = [gf16.element(v) for v in (14, 2, 12, 15)]
    mu, rho = pgz.extract_rho(build_syndrome_matrix(code, syndromes(code, y)))
    with pytest.raises(pgz.LocateFailure, match="no canonical rows survive"):
        locate_positions(code, mu, rho)


# -- harness ----------------------------------------------------------------------

def test_simulation_is_deterministic(code_gf):
    s1 = simulate(code_gf, 200, [0, 1, 2], seed="determinism")
    s2 = simulate(code_gf, 200, [0, 1, 2], seed="determinism")
    assert (s1.trials, s1.successes, s1.failures, s1.echelon_branch_count,
            s1.per_weight) == \
           (s2.trials, s2.successes, s2.failures, s2.echelon_branch_count,
            s2.per_weight)
    assert s1.successes == s1.trials


def test_report_serialization_mentions_all_fields(code_gf, gf4096):
    msg = parse_poly(gf4096, "x + a")
    err = parse_poly(gf4096, "a^2 + a^3x^3")
    y = (encode(code_gf, msg) + err).vector(6)
    text = decode(code_gf, y).to_text(gf4096)
    for key in ("status", "syndromes", "mu", "rho", "branch", "positions",
                "values", "error", "codeword", "message"):
        assert key in text


# field, delta and words per weight of each code decoded over a tabled and
# an untabled field: the paper's GF(2^12) code, then infinite-mix's F_4(z)
# code, F_8(z) with n = 9 and the affine sigma(z) = (z + 1)/a over F_4(z),
# whose tabled bases run the log-domain F_q[z] kernels and untabled ones
# the generic kernels
TABLED_UNTABLED_CODES = [
    (lambda: FiniteField(2, 12, GF4096_MODULUS, frobenius_power=10), 5, 50),
    (lambda: RationalFunctions(FiniteField(2, 2, "a^2 + a + 1", frobenius_power=0),
                               ("1", "a", "1", "a^2")), 5, 10),
    (lambda: RationalFunctions(FiniteField(2, 3, "a^3 + a + 1", frobenius_power=0),
                               ("0", "1", "1", "a")), 7, 4),
    (lambda: RationalFunctions(FiniteField(2, 2, "a^2 + a + 1", frobenius_power=0),
                               ("1", "1", "0", "a")), 3, 10),
]


def _is_tabled(ctx):
    return getattr(ctx, "base", ctx)._exp is not None


def test_tabled_and_untabled_fields_decode_alike(monkeypatch):
    # the log-domain fast paths must agree with the general arithmetic: the
    # same generator, and the same report text for seeded words of weight
    # 0 .. t+1, every value printed by the tabled field; alpha is the generator
    # but over the affine sigma, where z is not normal
    tabled = [make() for make, _, _ in TABLED_UNTABLED_CODES]
    monkeypatch.setattr(fields, "_TABLE_LIMIT", 0)
    untabled = [make() for make, _, _ in TABLED_UNTABLED_CODES]
    rng = rng_for("tabled-untabled")
    for fast, slow, (_, delta, per_weight) in zip(tabled, untabled, TABLED_UNTABLED_CODES):
        assert _is_tabled(fast) and not _is_tabled(slow)
        alpha = find_normal_element(fast).raw
        codes = [build_code(ctx, ctx.element(alpha), 0, delta) for ctx in (fast, slow)]
        assert codes[0].g.raw == codes[1].g.raw
        n, t, k = codes[0].n, codes[0].t, codes[0].dimension
        for i in range(per_weight * (t + 2)):
            msg = [fast.random_element(rng).raw for _ in range(k)]
            err = dict.fromkeys(rng.sample(range(n), i % (t + 2)), 0)
            for pos in err:
                err[pos] = fast.random_nonzero(rng).raw
            texts = []
            for code in codes:
                ctx = code.ctx
                cw = encode(code, SkewPolynomial(ctx, [ctx.element(v) for v in msg]))
                y = [v + ctx.element(err.get(j, ctx.zero_raw)) for j, v in enumerate(cw.vector(n))]
                texts.append(decode(code, y).to_text(fast))
            assert texts[0] == texts[1]


def test_convolutional_reports_equal_the_reduced_route(monkeypatch):
    # F_8(z), sigma(z) = 1/(z + a) of order 9, delta = 5 and 7: seeded words
    # of weight 0..t+1 decode to the same text when every clearing goes to
    # the product of the denominators and dual_support's kernel vector is
    # kept reduced, as the generic kernel_rows leaves it.  At delta = 7 the
    # locator seeds reach degree 3
    ctx = RationalFunctions(FiniteField(2, 3, "a^3 + a + 1", frobenius_power=0),
                            ("0", "1", "1", "a"))
    rng = rng_for("convolutional-reports")
    cases = []
    for delta, per_weight in ((5, 6), (7, 6)):
        code = build_code(ctx, ctx.generator, 0, delta)
        words = [make_received(code, random_poly(ctx, rng, code.dimension - 1),
                               random_error(code, rng, weight))
                 for weight in range(code.t + 2) for _ in range(per_weight)]
        cases.append((delta, words, [decode(code, y).to_text(ctx) for y in words]))
    assert all(sum("branch = echelon" in text for text in texts) >= 2
               for _, _, texts in cases)
    monkeypatch.setattr(RationalFunctions, "_over_one_denominator", over_product_denominator)
    monkeypatch.setattr(RationalFunctions, "kernel_rows", FieldContext.kernel_rows)
    for delta, words, texts in cases:
        reference = build_code(ctx, ctx.generator, 0, delta)
        assert [decode(reference, y).to_text(ctx) for y in words] == texts


# name: (base field, Moebius coefficients, delta, words per weight)
PACKED_SUM_CODES = {
    "f4z": ((2, 2, "a^2 + a + 1"), ("1", "a", "1", "a^2"), 5, 6),
    "gf9z": ((3, 2, "a^2 + 1"), ("1", "a", "1", "0"), 5, 6),
    "f8z-delta5": ((2, 3, "a^3 + a + 1"), ("0", "1", "1", "a"), 5, 4),
    "f8z-delta7": ((2, 3, "a^3 + a + 1"), ("0", "1", "1", "a"), 7, 4),
    "f16z": ((2, 4, "a^4 + a + 1"), ("0", "1", "1", "a"), 5, 2),
}


@pytest.mark.parametrize("name", PACKED_SUM_CODES)
def test_packed_sums_keep_the_builds_and_reports(name, monkeypatch):
    # seeded words of weight t and t+1 decode to the same text, and the
    # code builds to the same generator and tables, when the base field's
    # poly_sums is the schoolbook route: F_4(z), F_8(z) with n = 9 and
    # F_16(z) with n = 17 pack their conjugate sums; GF(9)(z) takes the
    # schoolbook either way
    (p, degree, modulus), mobius, delta, per_weight = PACKED_SUM_CODES[name]
    ctx = RationalFunctions(FiniteField(p, degree, modulus, frobenius_power=0), mobius)
    alpha = ctx.generator if p == 2 else find_normal_element(ctx)
    code = build_code(ctx, alpha, 0, delta)
    rng = rng_for(f"packed-sums-{name}")
    words = [make_received(code, random_poly(ctx, rng, code.dimension - 1),
                           random_error(code, rng, weight))
             for weight in (code.t, code.t + 1) for _ in range(per_weight)]
    texts = [decode(code, y).to_text(ctx) for y in words]
    assert any("branch = echelon" in text for text in texts)
    monkeypatch.setattr(FiniteField, "poly_sums", FiniteField._schoolbook_sums)
    reference = build_code(ctx, alpha, 0, delta)
    assert (reference.g, reference.conj_table, reference.dual_table) == \
        (code.g, code.conj_table, code.dual_table)
    assert [decode(reference, y).to_text(ctx) for y in words] == texts


@pytest.mark.parametrize("name", ["rational", "cyclotomic"])
def test_decode_takes_no_product_for_s_transpose_or_the_pivots(all_codes, name, monkeypatch):
    # F_4(z) and Q(chi_7), seeded words of weight 1..t+1: the rows of S^T
    # are sigma^(-j)(u_(i+j)), read off the unscaled conjugate sums with no
    # ctx.mul, and eliminate writes one at each pivot: it never multiplies
    # the entry it inverted by its inverse.  The products inside ctx.inv
    # (Q(chi)'s norm) are not eliminate's own and are not recorded
    code = all_codes[name]
    ctx = code.ctx
    rng = rng_for(f"no-redundant-products-{name}")
    words = [make_received(code, random_poly(ctx, rng, code.dimension - 1),
                           random_error(code, rng, weight))
             for weight in range(1, code.t + 2) for _ in range(4)]
    mul, inv, columns, eliminate = ctx.mul, ctx.inv, pgz._syndrome_columns, pgz.eliminate
    products, inverted, column_products, inside = [], [], [], []

    def recorded_mul(a, b):
        if inside == [True]:
            products.append((a, b))
        return mul(a, b)

    def recorded_inv(u):
        inside.append(False)
        try:
            v = inv(u)
        finally:
            inside.pop()
        inverted.append((u, v))
        return v

    def recorded_eliminate(ctx, rows):
        inside.append(True)
        try:
            return eliminate(ctx, rows)
        finally:
            inside.pop()

    def recorded_columns(code, u):
        before = len(products)
        inside.append(True)
        try:
            return columns(code, u)
        finally:
            inside.pop()
            column_products.append(len(products) - before)

    monkeypatch.setattr(ctx, "mul", recorded_mul)
    monkeypatch.setattr(ctx, "inv", recorded_inv)
    monkeypatch.setattr(pgz, "_syndrome_columns", recorded_columns)
    monkeypatch.setattr(pgz, "eliminate", recorded_eliminate)
    reports = [decode(code, y) for y in words]
    assert {r.branch for r in reports} >= {BRANCH_DIRECT, BRANCH_ECHELON}
    assert len(column_products) == len(words) and set(column_products) == {0}
    assert inverted and products
    assert not any(a is v and b is u for u, v in inverted for a, b in products)
