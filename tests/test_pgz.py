import pytest

from skewrs import fields
from skewrs import (BRANCH_ALL_ZERO, BRANCH_DIRECT, BRANCH_ECHELON,
                    FieldError, FiniteField, Matrix, SkewPolynomial,
                    build_code, build_syndrome_matrix, decode, encode,
                    evaluate, extract_rho, find_normal_element, left_divmod,
                    locate_positions, parse_poly, solve_row_system, syndromes)
from skewrs.cli import nearest_codeword_equivalence, run_trial, simulate

from conftest import GF4096_MODULUS, rng_for, random_poly
from oracles import contains, identity, norm_column, right_eval


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


def test_syndromes_reject_wrong_length(code_gf):
    with pytest.raises(ValueError):
        syndromes(code_gf, [code_gf.ctx.zero] * 3)


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
    bad = encode(code, msg) + SkewPolynomial.one(gf4096)
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


def test_tabled_and_untabled_fields_decode_alike(monkeypatch):
    # the log-domain fast paths must agree with the general arithmetic
    tabled = FiniteField(2, 12, GF4096_MODULUS, frobenius_power=10)
    monkeypatch.setattr(fields, "_TABLE_LIMIT", 1 << 11)
    untabled = FiniteField(2, 12, GF4096_MODULUS, frobenius_power=10)
    assert tabled._exp is not None and untabled._exp is None
    codes = [build_code(ctx, ctx.generator, 0, 5) for ctx in (tabled, untabled)]
    n, t, k = codes[0].n, codes[0].t, codes[0].dimension
    rng = rng_for("tabled-untabled")
    for i in range(200):
        msg = [rng.randrange(1 << 12) for _ in range(k)]
        err = dict.fromkeys(rng.sample(range(n), i % (t + 2)), 0)
        for pos in err:
            err[pos] = rng.randrange(1, 1 << 12)
        texts = []
        for code in codes:
            ctx = code.ctx
            cw = encode(code, SkewPolynomial(ctx, [ctx.element(v) for v in msg]))
            y = [v + ctx.element(err.get(j, 0)) for j, v in enumerate(cw.vector(n))]
            texts.append(decode(code, y).to_text(tabled))
        assert texts[0] == texts[1]
