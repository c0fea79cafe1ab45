"""Acceptance suite: one test per shipped criterion, each printing a
pass/fail line.  Every comparison is exact; the only tolerances anywhere
are wall-clock budgets."""

import time

from skewrs import (FiniteField, SkewPolynomial, build_code,
                    find_normal_element, lclm, lclm_many, run_example)
from skewrs.cli import simulate
from skewrs.codes import evaluation_matrix

from conftest import rng_for, random_nonzero_poly
from oracles import gcrd, min_distance_oracle, nearest_codeword_equivalence


def report(criterion, ok, detail):
    line = f"[ACCEPTANCE] {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def transcript_labels(transcript):
    return {c.label for c in transcript.checks}


def test_criterion_1_two_error_reference_decode_scenario_1():
    start = time.time()
    transcript = run_example(1)
    elapsed = time.time() - start
    required = {"generator", "codeword", "syndrome matrix",
                "column echelon form", "locator seed", "error positions",
                "error values"}
    ok = transcript.passed and required <= transcript_labels(transcript) \
        and elapsed < 1.0
    report("criterion 1 (GF(2^12) scenario 1, direct branch)", ok,
           f"{sum(c.ok for c in transcript.checks)}/{len(transcript.checks)} "
           f"exact matches in {elapsed:.2f}s")


def test_criterion_2_echelon_branch_scenario_2():
    transcript = run_example(1)
    labels = transcript_labels(transcript)
    ok = transcript.passed and {"shift matrix of the seed",
                                "evaluated shift matrix", "row echelon form",
                                "rows removed"} <= labels
    report("criterion 2 (GF(2^12) scenario 2, echelon branch end-to-end)", ok,
           "seed x+a^981, removed row, zero columns {0,3}, values exact")


def test_criterion_3_rational_function_reference_decode():
    start = time.time()
    transcript = run_example(2)
    elapsed = time.time() - start
    ok = transcript.passed and elapsed < 5.0
    report("criterion 3 (F_4(z) echelon decode, exact rational arithmetic)",
           ok, f"{sum(c.ok for c in transcript.checks)}/"
               f"{len(transcript.checks)} exact matches in {elapsed:.2f}s")


def test_criterion_4_cyclotomic_reference_decode():
    transcript = run_example(3)
    report("criterion 4 (Q(chi) decode, generator up to left scalar)",
           transcript.passed,
           f"{sum(c.ok for c in transcript.checks)}/"
           f"{len(transcript.checks)} exact matches")


def test_criterion_5_thousand_trials_per_backend(all_codes):
    start = time.time()
    details = []
    all_ok = True
    for name, code in all_codes.items():
        stats = simulate(code, 1000, list(range(code.t + 1)),
                         seed=f"acceptance-5-{name}")
        all_ok = all_ok and stats.failures == 0 and stats.trials == 1000
        details.append(f"{name} {stats.successes}/{stats.trials}")
    elapsed = time.time() - start
    all_ok = all_ok and elapsed < 60.0
    report("criterion 5 (1000 seeded trials per code, 100% recovery)",
           all_ok, ", ".join(details) + f" in {elapsed:.1f}s")


def test_criterion_6_exhaustive_minimum_distance():
    gf16 = FiniteField(2, 4, "a^4 + a + 1")
    code43 = build_code(gf16, find_normal_element(gf16), 0, 3)
    n_msgs = gf16.size ** code43.dimension - 1
    d43 = min_distance_oracle(code43)
    gf8 = FiniteField(2, 3, "a^3 + a + 1")
    code33 = build_code(gf8, find_normal_element(gf8), 0, 3)
    d33 = min_distance_oracle(code33)
    ok = d43 == 3 and n_msgs == 255 and d33 == 3 and code33.dimension == 1
    report("criterion 6 (exhaustive MDS distances)", ok,
           f"GF(16) n=4 delta=3: d={d43} over {n_msgs} messages; "
           f"GF(8) n=3 delta=3 dim=1: d={d33}")


def test_criterion_7_nearest_codeword_equivalence():
    gf16 = FiniteField(2, 4, "a^4 + a + 1")
    code = build_code(gf16, find_normal_element(gf16), 0, 3)
    mismatches = nearest_codeword_equivalence(code)
    n_words = gf16.size ** code.dimension * (1 + code.n * (gf16.size - 1))
    report("criterion 7 (decode == nearest codeword on radius-1 balls)",
           mismatches == 0, f"{n_words} words checked, {mismatches} disagreements")


def test_criterion_8_algebraic_identity_suite(all_contexts, all_codes):
    ok = True
    notes = []
    for name, code in all_codes.items():
        ctx = code.ctx
        x = SkewPolynomial.variable(ctx)
        factors = [x - SkewPolynomial(ctx, (ctx.sigma(code.beta, k),))
                   for k in range(code.n)]
        xn1 = SkewPolynomial(
            ctx, [-ctx.one] + [ctx.zero] * (code.n - 1) + [ctx.one])
        ok = ok and lclm_many(factors) == xn1
        ok = ok and evaluation_matrix(code).rank() == code.n
        rng = rng_for(f"acc8-{name}")
        for _ in range(200):
            f = random_nonzero_poly(ctx, rng, rng.randrange(1, 4))
            g = random_nonzero_poly(ctx, rng, rng.randrange(1, 4))
            ok = ok and gcrd(f, g).degree + lclm(f, g).degree == f.degree + g.degree
        notes.append(f"{name}: x^n-1 factorization, N rank {code.n}, "
                     f"200 degree-formula pairs")
    report("criterion 8 (algebraic identities, exact)", ok, "; ".join(notes))


def test_criterion_9_branch_statistics(code_gf):
    stats1 = simulate(code_gf, 10000, [1], seed="acceptance-9-w1")
    ok = stats1.echelon_branch_count == 0 and stats1.failures == 0
    stats2 = simulate(code_gf, 10000, [2], seed="acceptance-9-w2")
    ok = ok and stats2.failures == 0
    freq = stats2.echelon_branch_count / stats2.trials
    report("criterion 9 (branch statistics)", ok,
           f"weight-1: {stats1.echelon_branch_count}/10000 echelon (must be 0); "
           f"weight-2: {stats2.echelon_branch_count}/10000 echelon "
           f"(frequency {freq:.4%}, reported only)")
