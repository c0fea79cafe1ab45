import dataclasses
import math
import os
import pathlib
import re
import stat
import subprocess
import sys
import threading
import time

import pytest

from skewrs import (EXAMPLE_CONFIGS, ConfigError, FieldError, FiniteField, SkewPolynomial,
                    build_code, cli, code_from_config, find_normal_element, pgz)
from skewrs.cli import main, parse_weights

from conftest import LONG_LITERAL
from oracles import min_distance_oracle, nearest_codeword_equivalence


@pytest.fixture
def workspace(tmp_path):
    cfg = tmp_path / "code.cfg"
    cfg.write_text(EXAMPLE_CONFIGS[1])
    bundle = tmp_path / "code.bundle"
    assert main(["build", "--config", str(cfg), "--out", str(bundle)]) == 0
    return tmp_path, bundle


def test_build_prints_summary(capsys, tmp_path):
    cfg = tmp_path / "code.cfg"
    cfg.write_text(EXAMPLE_CONFIGS[1])
    assert main(["build", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "g = x^4 + a^2103*x^3 + a^687*x^2 + a^1848*x + a^759" in out
    assert "t = 2" in out


def test_build_rejects_bad_delta(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(EXAMPLE_CONFIGS[1].replace("delta = 5", "delta = 9"))
    assert main(["build", "--config", str(cfg)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [
    {"r = 0": "r = x"},
    {"delta = 5": "delta = five"},
    {"field.degree = 12": "field.degree = 0",
     "a^12 + a^7 + a^6 + a^5 + a^3 + a + 1": "1"},
], ids=["r", "delta", "degree"])
def test_build_rejects_malformed_config(capsys, tmp_path, bad):
    text = EXAMPLE_CONFIGS[1]
    for old, new in bad.items():
        assert old in text
        text = text.replace(old, new)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    assert main(["build", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_a_repeated_config_key_is_refused(capsys, tmp_path):
    # the last value used to win silently: this built a delta = 3 code
    text = EXAMPLE_CONFIGS[1] + "delta = 3\n"
    message = "line 11: key 'delta' repeats line 10"
    with pytest.raises(ConfigError) as info:
        code_from_config(text)
    assert str(info.value) == message
    cfg = tmp_path / "twice.cfg"
    cfg.write_text(text)
    assert main(["build", "--config", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


def test_a_config_without_a_final_newline_bundles_the_same_code(tmp_path):
    cfg, bundle = tmp_path / "code.cfg", tmp_path / "code.bundle"
    cfg.write_text(EXAMPLE_CONFIGS[1].rstrip("\n"))
    assert main(["build", "--config", str(cfg), "--out", str(bundle)]) == 0
    _, loaded = cli.load_bundle(str(bundle))
    _, code = code_from_config(EXAMPLE_CONFIGS[1])
    assert (loaded.alpha, loaded.beta, loaded.g, loaded.r, loaded.delta) == \
        (code.alpha, code.beta, code.g, code.r, code.delta)
    assert bundle.read_text().startswith(EXAMPLE_CONFIGS[1] + "# derived: n = 6, t = 2\n")


def test_python_dash_m_skewrs_prints_the_paper_example():
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    run = subprocess.run([sys.executable, "-m", "skewrs", "paper-example", "--which", "1"],
                         capture_output=True, env=env, cwd=root, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout == (root / "tests" / "data" / "paper_example_1.txt").read_bytes()


def test_encode_decode_round_trip(workspace, capsys):
    tmp, bundle = workspace
    msg = tmp / "msg.txt"
    msg.write_text("x + a\n")
    cw = tmp / "cw.txt"
    assert main(["encode", "--code", str(bundle), "--in", str(msg),
                 "--out", str(cw)]) == 0
    assert cw.read_text().strip() == \
        "x^5 + a^3953*x^4 + a^1333*x^3 + a^2604*x^2 + a^1596*x + a^760"
    rx = tmp / "rx.txt"
    rx.write_text(cw.read_text().strip() + " + a^2 + a^1367x^3\n")
    report = tmp / "report.txt"
    assert main(["decode", "--code", str(bundle), "--in", str(rx),
                 "--out", str(report)]) == 0
    text = report.read_text()
    assert "branch = echelon" in text
    assert "positions = 0, 3" in text
    assert "message = x + a" in text


def test_decode_failure_exit_code(workspace, capsys):
    tmp, bundle = workspace
    rx = tmp / "rx.txt"
    # three errors overwhelm a t=2 code; accept either explicit failure or
    # a miscorrection, but exit 1 only on explicit failure
    rx.write_text("a^7x^5 + a^11x^2 + a^13\n")
    rc = main(["decode", "--code", str(bundle), "--in", str(rx)])
    out = capsys.readouterr().out
    assert rc in (0, 1)
    assert ("status = failed" in out) == (rc == 1)


def test_decode_rejects_word_longer_than_code(workspace, capsys):
    tmp, bundle = workspace
    rx = tmp / "rx.txt"
    rx.write_text("x^6 + a\n")
    assert main(["decode", "--code", str(bundle), "--in", str(rx)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "degree 6" in err
    assert "Traceback" not in err


def test_encode_rejects_huge_exponent_before_expanding_it(workspace, capsys):
    tmp, bundle = workspace
    msg = tmp / "msg.txt"
    msg.write_text("x^99999999999\n")
    assert main(["encode", "--code", str(bundle), "--in", str(msg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_simulate_is_seeded(workspace, capsys):
    tmp, bundle = workspace
    assert main(["simulate", "--code", str(bundle), "--trials", "50",
                 "--weights", "0:2", "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert main(["simulate", "--code", str(bundle), "--trials", "50",
                 "--weights", "0:2", "--seed", "7"]) == 0
    second = capsys.readouterr().out
    assert first.split("wall_time")[0] == second.split("wall_time")[0]
    assert "failures = 0" in first


def test_seeded_simulate_matches_recorded_statistics(tmp_path, capsys):
    # simulate --trials 200 --weights 0:4 --seed 5 on each demo config must
    # reproduce a recorded run line for line; only wall_time may differ
    root = pathlib.Path(__file__).resolve().parents[1]
    lines = []
    for name in ("gf4096", "rational", "cyclotomic"):
        bundle = tmp_path / f"{name}.bundle"
        assert main(["build", "--config", str(root / "demos" / "configs" / f"{name}.cfg"),
                     "--out", str(bundle)]) == 0
        capsys.readouterr()
        assert main(["simulate", "--code", str(bundle), "--trials", "200",
                     "--weights", "0:4", "--seed", "5"]) == 0
        lines.append(f"== {name}.cfg")
        lines += [line for line in capsys.readouterr().out.splitlines()
                  if not line.startswith("wall_time")]
    recorded = (root / "tests" / "data" / "simulate_seed5.txt").read_text()
    assert "\n".join(lines) + "\n" == recorded


def test_paper_example_verbs(capsys):
    for which in ("1", "2", "3"):
        assert main(["paper-example", "--which", which]) == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out
        assert "FAIL" not in out


def test_oracle_on_small_code(tmp_path, capsys):
    cfg = tmp_path / "small.cfg"
    cfg.write_text("""
field.kind = finite-field
field.p = 2
field.degree = 4
field.modulus = a^4 + a + 1
sigma.frobenius_power = 1
alpha = a^3
delta = 3
""")
    bundle = tmp_path / "small.bundle"
    assert main(["build", "--config", str(cfg), "--out", str(bundle)]) == 0
    capsys.readouterr()
    assert main(["oracle", "--code", str(bundle)]) == 0
    out = capsys.readouterr().out
    assert "minimum distance = 3" in out
    assert "0 disagreements" in out


GF32_DELTA5 = """
field.kind = finite-field
field.p = 2
field.degree = 5
field.modulus = a^5 + a^2 + 1
sigma.frobenius_power = 1
alpha = a^13
delta = 5
"""


@pytest.fixture
def gf32_bundle(tmp_path):
    cfg = tmp_path / "g32.cfg"
    cfg.write_text(GF32_DELTA5)
    bundle = tmp_path / "g32.bundle"
    assert main(["build", "--config", str(cfg), "--out", str(bundle)]) == 0
    return bundle


def test_oracle_budget_bounds_the_radius_t_balls(gf32_bundle, capsys):
    # GF(32), n = 5, delta = 5: C(5, 4) = 5 minors, within the budget, but
    # the errors of weight <= 2 up to scale number 1 + 5 + 10*31, beyond it
    capsys.readouterr()
    start = time.perf_counter()
    assert main(["oracle", "--code", str(gf32_bundle), "--budget", "300"]) == 0
    assert time.perf_counter() - start < 1.0
    out = capsys.readouterr().out
    assert "minimum distance = 5" in out
    assert "nearest-codeword equivalence skipped: 316 error patterns up to scale" \
           " exceed budget 300" in out


def test_oracle_decodes_every_error_pattern_of_the_gf32_code(gf32_bundle, capsys):
    # the 316 error patterns up to scale fit the default budget; the ball
    # walk in oracles would decode about 32 * 31 times as many words
    capsys.readouterr()
    assert main(["oracle", "--code", str(gf32_bundle)]) == 0
    out = capsys.readouterr().out
    assert "exhaustive minimum distance = 5" in out
    assert "nearest-codeword equivalence: 0 disagreements in 316 error patterns" in out
    assert "failures = 0" in out


def test_error_patterns_are_decoded_once_per_scalar_class(gf32_bundle, monkeypatch):
    # 1 + C(5, 1) + C(5, 2) * 31 distinct patterns, each with first nonzero
    # value 1
    ctx, code = cli.load_bundle(str(gf32_bundle))
    seen = []
    real = cli.decode

    def counting(code, e):
        seen.append(tuple(v.raw for v in e))
        return real(code, e)

    monkeypatch.setattr(cli, "decode", counting)
    assert cli.error_pattern_equivalence(code) == 0
    assert len(seen) == len(set(seen)) == 316
    assert all(next((v for v in e if v != ctx.zero_raw), ctx.one_raw) == ctx.one_raw
               for e in seen)


def test_a_dependent_parity_check_column_is_reported_as_a_short_distance(
        gf32_bundle, monkeypatch, capsys):
    # the patterns are skipped and no trial runs, so only the minors can fail
    argv = ["oracle", "--code", str(gf32_bundle), "--budget", "300", "--trials", "0"]
    capsys.readouterr()
    assert main(argv) == 0
    real = cli.parity_check_columns

    def dependent(code):
        columns = real(code)
        columns[3] = list(columns[1])
        return columns

    monkeypatch.setattr(cli, "parity_check_columns", dependent)
    assert main(argv) == 1
    out = capsys.readouterr().out
    assert "generator check: pass" in out
    assert "exhaustive minimum distance = 2 (designed 5)" in out
    assert "MDS check: FAIL" in out


def test_a_changed_generator_constant_fails_the_generator_check(
        gf32_bundle, monkeypatch, capsys):
    # H is the code's, so the minors still pass; g no longer vanishes at
    # the beta-roots
    argv = ["oracle", "--code", str(gf32_bundle), "--budget", "300", "--trials", "0"]
    real = cli.load_bundle

    def changed(path):
        ctx, code = real(path)
        g = code.g.raw
        return ctx, dataclasses.replace(code, g=SkewPolynomial.from_raw(
            ctx, (ctx.add(g[0], ctx.one_raw),) + g[1:]))

    monkeypatch.setattr(cli, "load_bundle", changed)
    capsys.readouterr()
    assert main(argv) == 1
    out = capsys.readouterr().out
    assert "generator check: FAIL" in out
    assert "exhaustive minimum distance = 5 (designed 5)" in out
    assert "MDS check: pass" in out


# p, d, modulus and Frobenius power of each field, sigma of order n
MINORS_FIELDS = {
    "gf8": (2, 3, "a^3 + a + 1", 1),
    "gf16": (2, 4, "a^4 + a + 1", 1),
    "gf16-frob3": (2, 4, "a^4 + a + 1", 3),
    "gf27": (3, 3, "a^3 + 2a + 1", 1),
    "gf32": (2, 5, "a^5 + a^2 + 1", 1),
    "gf64-frob2": (2, 6, "a^6 + a + 1", 2),
    "gf81": (3, 4, "a^4 + 2a^3 + 2", 1),
}


@pytest.mark.parametrize("name", MINORS_FIELDS)
def test_minors_distance_equals_the_codeword_enumeration(name):
    p, d, modulus, power = MINORS_FIELDS[name]
    ctx = FiniteField(p, d, modulus, frobenius_power=power)
    alpha = find_normal_element(ctx)
    n = ctx.order
    for delta in range(2, n + 1):
        for r in (0, 1, n - 1):
            code = build_code(ctx, alpha, r, delta)
            assert cli.generator_check(code), (delta, r)
            assert cli.parity_check_distance(code, math.comb(n, delta - 1)) == \
                min_distance_oracle(code) == delta, (delta, r)


@pytest.fixture
def gf16_bundle(tmp_path):
    # GF(16), n = 4, delta = 3, t = 1, alpha = a^11 (find_normal_element's)
    cfg = tmp_path / "gf16.cfg"
    cfg.write_text("""
field.kind = finite-field
field.p = 2
field.degree = 4
field.modulus = a^4 + a + 1
sigma.frobenius_power = 1
alpha = a^11
delta = 3
""")
    bundle = tmp_path / "gf16.bundle"
    assert main(["build", "--config", str(cfg), "--out", str(bundle)]) == 0
    return bundle


def plant_value_fault(monkeypatch):
    # the first error value comes out times the field's generator whenever
    # the first error position is 2
    real = pgz._error_values

    def faulty(code, positions, s):
        values = real(code, positions, s)
        if positions[0] == 2:
            values[0] = code.ctx.mul(values[0], code.ctx.generator_raw)
        return values

    monkeypatch.setattr(pgz, "_error_values", faulty)


def test_simulate_exits_1_when_a_weight_within_t_fails(gf16_bundle, monkeypatch, capsys):
    argv = ["simulate", "--code", str(gf16_bundle), "--trials", "200", "--weights", "0:2"]
    capsys.readouterr()
    # weight 2 is past t, so its failures alone leave the exit status 0
    assert main(argv) == 0
    assert "weight 1: 66/66 recovered\nweight 2: 0/71 recovered" in capsys.readouterr().out
    plant_value_fault(monkeypatch)
    assert main(argv) == 1
    assert "weight 1: 51/66 recovered\nweight 2: 0/71 recovered" in capsys.readouterr().out


def test_a_planted_value_fault_is_caught_by_both_oracles(gf16_bundle, monkeypatch, capsys):
    ctx, code = cli.load_bundle(str(gf16_bundle))
    plant_value_fault(monkeypatch)
    patterns = cli.error_pattern_equivalence(code)
    assert patterns > 0
    # decode(c + e) is decode(e) shifted by c, and the fault hits every
    # multiple of a faulty pattern, so each faulty pattern up to scale fails
    # q - 1 times in the ball of every codeword
    assert nearest_codeword_equivalence(code) == \
        ctx.size ** code.dimension * (ctx.size - 1) * patterns
    capsys.readouterr()
    assert main(["oracle", "--code", str(gf16_bundle)]) == 1
    out = capsys.readouterr().out
    assert "MDS check: pass" in out
    assert f"nearest-codeword equivalence: {patterns} disagreements" in out
    assert "failures = 25" in out


def test_oracle_declines_infinite_field(tmp_path, capsys):
    cfg = tmp_path / "rf.cfg"
    cfg.write_text(EXAMPLE_CONFIGS[2])
    bundle = tmp_path / "rf.bundle"
    assert main(["build", "--config", str(cfg), "--out", str(bundle)]) == 0
    capsys.readouterr()
    assert main(["oracle", "--code", str(bundle), "--trials", "20"]) == 0
    out = capsys.readouterr().out
    # the minors and the generator check run on every field; only the
    # error patterns need a finite one
    assert "generator check: pass" in out
    assert "exhaustive minimum distance = 5 (designed 5)" in out
    assert "MDS check: pass" in out
    assert "nearest-codeword equivalence skipped: the field is infinite" in out
    assert "failures = 0" in out


def test_simulate_rejects_negative_trials(workspace, capsys):
    tmp, bundle = workspace
    capsys.readouterr()
    assert main(["simulate", "--code", str(bundle), "--trials", "-3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_oracle_rejects_negative_trials_on_infinite_field(tmp_path, capsys):
    cfg = tmp_path / "rf.cfg"
    cfg.write_text(EXAMPLE_CONFIGS[2])
    bundle = tmp_path / "rf.bundle"
    assert main(["build", "--config", str(cfg), "--out", str(bundle)]) == 0
    capsys.readouterr()
    assert main(["oracle", "--code", str(bundle), "--trials", "-3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["--budget", "-1"], ["--budget", "5"], ["--trials", "-5"]],
                         ids=["negative-budget", "budget-below-count", "negative-trials"])
def test_oracle_refusals_on_a_finite_field_are_one_error_line(tmp_path, capsys, argv):
    # GF(16), n = 4, delta = 3: C(4, 2) = 6 minors, more than a budget of 5
    cfg = tmp_path / "small.cfg"
    cfg.write_text("""
field.kind = finite-field
field.p = 2
field.degree = 4
field.modulus = a^4 + a + 1
sigma.frobenius_power = 1
alpha = a^3
delta = 3
""")
    bundle = tmp_path / "small.bundle"
    assert main(["build", "--config", str(cfg), "--out", str(bundle)]) == 0
    capsys.readouterr()
    assert main(["oracle", "--code", str(bundle)] + argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and err.count("\n") == 1


def test_cyclotomic_decode_through_cli(tmp_path, capsys):
    cfg = tmp_path / "cyc.cfg"
    cfg.write_text(EXAMPLE_CONFIGS[3])
    bundle = tmp_path / "cyc.bundle"
    assert main(["build", "--config", str(cfg), "--out", str(bundle)]) == 0
    rx = tmp_path / "rx.txt"
    rx.write_text("2x^4 + (-chi^5 - chi^3 - chi^2)x^3 + (chi^3 + 2chi + 1)x^2"
                  " + (chi^5 + chi^4 + 1)x + chi^5 - chi^2 + chi + 1\n")
    capsys.readouterr()
    assert main(["decode", "--code", str(bundle), "--in", str(rx)]) == 0
    out = capsys.readouterr().out
    assert "positions = 2" in out
    assert "values = chi" in out


@pytest.mark.parametrize("verb", ["encode", "decode"])
def test_a_coordinate_too_long_to_print_is_one_error_line(tmp_path, capsys, int_digit_limit,
                                                          verb):
    # 99999^1024 parses, but has 5120 digits, past the interpreter's limit
    # on printing an int
    cfg = tmp_path / "cyc.cfg"
    cfg.write_text(EXAMPLE_CONFIGS[3])
    word = tmp_path / "word.txt"
    word.write_text("99999^1024\n")
    assert main([verb, "--code", str(cfg), "--in", str(word)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: a coordinate is too long to print in decimal\n"


def test_another_field_error_is_not_a_usage_error(workspace, monkeypatch):
    # past load_bundle, a FieldError other than a formatting one is a fault
    # of the code, so it keeps its traceback
    tmp_path, bundle = workspace
    word = tmp_path / "word.txt"
    word.write_text("x + a\n")

    def foreign(*args):
        raise FieldError("elements belong to different field contexts")

    monkeypatch.setattr(cli, "decode", foreign)
    with pytest.raises(FieldError, match="different field contexts"):
        main(["decode", "--code", str(bundle), "--in", str(word)])


@pytest.mark.parametrize("text", ["(" * 300 + "a" + ")" * 300, "-" * 2000 + "a"],
                         ids=["parentheses", "minus-signs"])
def test_decode_rejects_deep_nesting_with_one_line(workspace, capsys, text):
    tmp, bundle = workspace
    word = tmp / "deep.txt"
    word.write_text(text)
    capsys.readouterr()
    assert main(["decode", "--code", str(bundle), "--in", str(word)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("verb, flag", [("build", "--config"), ("encode", "--in"),
                                        ("decode", "--in"), ("decode", "--code")])
def test_non_utf8_file_is_usage_error(workspace, capsys, verb, flag):
    tmp, bundle = workspace
    bad = tmp / "bad.txt"
    bad.write_bytes(b"x + a\xff\n")
    good = tmp / "word.txt"
    good.write_text("x + a\n")
    args = {"--config": str(bad)} if verb == "build" else \
        {"--code": str(bundle), "--in": str(good), flag: str(bad)}
    capsys.readouterr()
    assert main([verb] + [s for kv in args.items() for s in kv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "UTF-8" in err


def test_missing_file_is_usage_error(capsys):
    assert main(["build", "--config", "/nonexistent/nowhere.cfg"]) == 2


def test_parse_weights_forms():
    assert parse_weights(None, 2) == [0, 1, 2]
    assert parse_weights("1", 2) == [1]
    assert parse_weights("0:3", 2) == [0, 1, 2, 3]
    assert parse_weights("0,2", 2) == [0, 2]


@pytest.mark.parametrize("spec", ["3:1", "x", "1,y", "0:99"])
def test_simulate_rejects_bad_weights(workspace, capsys, spec):
    tmp, bundle = workspace
    assert main(["simulate", "--code", str(bundle), "--trials", "5",
                 "--weights", spec]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_main_answers_each_call_as_a_first_call(workspace, capsys):
    # the parser is built once per process; a call must not see what an
    # earlier call parsed, nor how it ended
    tmp, bundle = workspace
    word = tmp / "word.txt"
    word.write_text("x^5 + a\n")
    calls = [["paper-example", "--which", "1"],
             ["simulate", "--code", str(bundle), "--trials", "3", "--weights", "1"],
             ["paper-example"],
             ["decode", "--code", str(bundle), "--in", str(word)],
             ["simulate", "--code", str(bundle), "--trials", "3"],
             ["encode", "--code", str(bundle)],
             ["oracle", "--code", str(bundle), "--budget", "x"]]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        # simulate's timing line is the one output that may differ
        return code, [l for l in out.splitlines() if not l.startswith("wall_time")], err

    first = []
    for argv in calls:
        cli._parser.cache_clear()
        first.append(run(argv))
    assert [code for code, _, _ in first] == [0, 0, 2, 0, 0, 2, 2]
    assert all(first[i][2].startswith("usage:") for i in (2, 5, 6))
    assert [run(argv) for argv in calls] == first


@pytest.mark.parametrize("verb", ["encode", "decode"])
@pytest.mark.parametrize("text", [LONG_LITERAL, "a^" + LONG_LITERAL], ids=["integer", "exponent"])
def test_an_overlong_literal_in_a_word_is_one_error_line(workspace, capsys, int_digit_limit,
                                                          verb, text):
    tmp, bundle = workspace
    word = tmp / "long.txt"
    word.write_text(text + "\n")
    capsys.readouterr()
    assert main([verb, "--code", str(bundle), "--in", str(word)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and err.count("\n") == 1


def _build_exits_2_with_one_error_line(tmp_path, capsys, old, new, which=1):
    text = EXAMPLE_CONFIGS[which]
    assert old in text
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text.replace(old, new))
    assert main(["build", "--config", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and err.count("\n") == 1
    return err


def test_build_with_an_overlong_alpha_exponent_is_one_error_line(tmp_path, capsys,
                                                                 int_digit_limit):
    err = _build_exits_2_with_one_error_line(tmp_path, capsys, "alpha = a",
                                             "alpha = a^" + LONG_LITERAL)
    assert err.startswith("error: alpha:")


@pytest.mark.parametrize("p, degree, modulus, bound", [
    (1000000000000000003, 1, "a + 1", "2^31"),
    (2, 200000, "a^200000 + a + 1", "2^64"),
], ids=["huge-p", "huge-degree"])
def test_build_past_the_field_bounds_is_one_error_line(tmp_path, capsys, p, degree, modulus,
                                                       bound):
    # the bounds are checked before p is tested for primality or the
    # modulus is read
    old = "field.p = 2\nfield.degree = 12\nfield.modulus = a^12 + a^7 + a^6 + a^5 + a^3 + a + 1"
    new = f"field.p = {p}\nfield.degree = {degree}\nfield.modulus = {modulus}"
    start = time.perf_counter()
    err = _build_exits_2_with_one_error_line(tmp_path, capsys, old, new)
    assert bound in err and time.perf_counter() - start < 1.0


def test_build_past_the_cyclotomic_bound_is_one_error_line(tmp_path, capsys):
    # refused before m is factorised, sigma's powers are walked or a code
    # over Q(chi_100003) is built
    start = time.perf_counter()
    err = _build_exits_2_with_one_error_line(
        tmp_path, capsys, "cyclotomic.order = 7\ncyclotomic.symbol = chi\nsigma.exponent = 3",
        "cyclotomic.order = 100003\nsigma.exponent = 2", which=3)
    assert "m^3 + m^2*n^3 <= 10^7" in err and time.perf_counter() - start < 1.0


def test_build_past_the_mobius_order_bound_is_one_error_line(tmp_path, capsys):
    # sigma(z) = a*z over F_256(z) has order 255: refused as its order is
    # walked, before a code is built
    old = ("field.degree = 2\nfield.modulus = a^2 + a + 1\nfield.generator = a\n"
           "field.variable = z\nsigma.mobius = 1, a, 1, a^2\nalpha = z\nr = 0\ndelta = 5")
    new = ("field.degree = 8\nfield.modulus = a^8 + a^4 + a^3 + a^2 + 1\n"
           "sigma.mobius = a, 0, 0, 1\nalpha = (z+1)/(z+a)\ndelta = 2")
    start = time.perf_counter()
    err = _build_exits_2_with_one_error_line(tmp_path, capsys, old, new, which=2)
    assert "n <= 17" in err and time.perf_counter() - start < 1.0


@pytest.mark.parametrize("which, old, new, message", [
    (1, "field.kind = finite-field", "field.kind = galois", "unknown field.kind"),
    (2, "sigma.mobius = 1, a, 1, a^2", "sigma.mobius = 1, a, 1",
     "sigma.mobius needs four comma-separated values"),
    (1, "field.p = 2\nfield.degree = 12\nfield.modulus = a^12 + a^7 + a^6 + a^5 + a^3 + a + 1",
     "field.p = 3\nfield.degree = 2\nfield.modulus = 2a^2 + 1", "modulus must be monic"),
    (3, "cyclotomic.order = 7", "cyclotomic.order = 9", "root order 9 must be an odd prime"),
    (3, "sigma.exponent = 3", "sigma.exponent = 7",
     "sigma exponent must be coprime to the root order"),
    # parse_poly reads x as the polynomial variable, so a field symbol x
    # would turn every message's x into a constant
    (1, "field.modulus = a^12 + a^7 + a^6 + a^5 + a^3 + a + 1\nfield.generator = a",
     "field.modulus = x^12 + x^7 + x^6 + x^5 + x^3 + x + 1\nfield.generator = x",
     "the symbol 'x' names the polynomial variable"),
    (2, "field.variable = z", "field.variable = x", "the symbol 'x' names the polynomial variable"),
    (3, "cyclotomic.symbol = chi", "cyclotomic.symbol = x",
     "the symbol 'x' names the polynomial variable"),
], ids=["unknown-kind", "mobius-arity", "not-monic", "composite-root-order", "exponent",
        "generator-x", "variable-x", "cyclotomic-symbol-x"])
def test_build_refusals_are_one_error_line(tmp_path, capsys, which, old, new, message):
    assert message in _build_exits_2_with_one_error_line(tmp_path, capsys, old, new, which)


@pytest.mark.parametrize("verb", ["encode", "decode"])
@pytest.mark.parametrize("text, message", [
    ("x^a", "expected 'int', found 'a'"),
    ("a)", "unexpected ')'"),
    ("*a", "unexpected '*'"),
], ids=["exponent", "trailing-token", "bad-atom"])
def test_a_malformed_word_is_one_error_line(workspace, capsys, verb, text, message):
    tmp, bundle = workspace
    word = tmp / "bad.txt"
    word.write_text(text + "\n")
    capsys.readouterr()
    assert main([verb, "--code", str(bundle), "--in", str(word)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("modulus", ["", "a^", "a^12 a", "b^2 + 1", "(a+1)^2", "a^2 ++ 1",
                                     "a^999999999999 + 1"])
def test_build_with_a_malformed_modulus_is_one_error_line(tmp_path, capsys, modulus):
    err = _build_exits_2_with_one_error_line(tmp_path, capsys,
                                             "a^12 + a^7 + a^6 + a^5 + a^3 + a + 1", modulus)
    assert err.startswith("error: field.modulus: ")


@pytest.mark.parametrize("mobius, message", [
    ("$, a, 1, a^2", "value 1 of 4: unexpected character '$' (at position 0)"),
    ("1, a, 1, a^2 + $", "value 4 of 4: unexpected character '$' (at position 6)"),
    ("1, a,  a^, a^2", "value 3 of 4: expected 'int', found '' (at position 2)"),
], ids=["first", "last", "exponent"])
def test_build_with_a_malformed_mobius_value_names_the_value(tmp_path, capsys, mobius, message):
    err = _build_exits_2_with_one_error_line(tmp_path, capsys, "sigma.mobius = 1, a, 1, a^2",
                                             f"sigma.mobius = {mobius}", which=2)
    assert err == f"error: sigma.mobius: {message}\n"


@pytest.mark.parametrize("which, key", [
    (1, "field.p"), (1, "field.degree"), (1, "sigma.frobenius_power"),
    (3, "cyclotomic.order"), (3, "sigma.exponent"), (1, "r"), (1, "delta"),
])
def test_a_config_value_that_is_not_an_integer_names_its_key(tmp_path, capsys, which, key):
    line = next(l for l in EXAMPLE_CONFIGS[which].splitlines() if l.startswith(f"{key} = "))
    err = _build_exits_2_with_one_error_line(tmp_path, capsys, line, f"{key} = five", which)
    assert err == f"error: {key}: expected an integer, got 'five'\n"


def test_an_overlong_config_value_is_cut_short_in_the_error(tmp_path, capsys):
    err = _build_exits_2_with_one_error_line(tmp_path, capsys, "delta = 5", "delta = " + "x" * 5000)
    assert err == f"error: delta: expected an integer, got '{'x' * 37}...'\n"


@pytest.mark.parametrize("p, degree, modulus", [
    # a(a+1)(a^3+a+1)(a^3+a^2+1)(a^4+a+1): no factor of degree 12/2 or 12/3
    (2, 12, "a^12 + a^9 + a^8 + a^5 + a^2 + a"),
    # factor degrees 1, 2, 2 and 5: none of 10/2 or 10/5 is a multiple of all
    (3, 10, "a^10 + 2a^9 + a^5 + 2a^3 + 2a + 1"),
], ids=["gf2^12", "gf3^10"])
def test_build_with_a_reducible_modulus_is_one_error_line(tmp_path, capsys, p, degree, modulus):
    old = "field.p = 2\nfield.degree = 12\nfield.modulus = a^12 + a^7 + a^6 + a^5 + a^3 + a + 1"
    new = f"field.p = {p}\nfield.degree = {degree}\nfield.modulus = {modulus}"
    err = _build_exits_2_with_one_error_line(tmp_path, capsys, old, new)
    assert err == "error: modulus is not irreducible\n"


# -- output files -------------------------------------------------------------

VERBS = ("build", "encode", "decode")


def _write_each_verb(tmp, outputs):
    """build, encode and decode the paper code with --out outputs[verb];
    returns the bytes each output path holds afterwards."""
    cfg = tmp / "code.cfg"
    cfg.write_text(EXAMPLE_CONFIGS[1])
    msg = tmp / "msg.txt"
    msg.write_text("x + a\n")
    rx = tmp / "rx.txt"
    rx.write_text("x^5 + a^3953*x^4 + a^1333*x^3 + a^2604*x^2 + a^1596*x + a^760"
                  " + a^2 + a^1367x^3\n")
    bundle = str(outputs["build"])
    assert main(["build", "--config", str(cfg), "--out", bundle]) == 0
    for verb, infile in (("encode", msg), ("decode", rx)):
        assert main([verb, "--code", bundle, "--in", str(infile),
                     "--out", str(outputs[verb])]) == 0
    return {verb: pathlib.Path(outputs[verb]).read_bytes() for verb in VERBS}


@pytest.fixture
def fresh_outputs(tmp_path, capsys):
    """What each verb writes to a path that did not exist."""
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    return _write_each_verb(fresh, {verb: fresh / verb for verb in VERBS})


def test_writing_over_a_longer_file_leaves_exactly_the_new_output(tmp_path, fresh_outputs):
    paths = {verb: tmp_path / f"old.{verb}" for verb in VERBS}
    for path in paths.values():
        path.write_bytes(b"junk\n" * 1000)
    assert all(len(out) < 5000 for out in fresh_outputs.values())
    assert _write_each_verb(tmp_path, paths) == fresh_outputs


def test_an_existing_output_keeps_its_inode_and_mode(tmp_path, fresh_outputs):
    paths = {verb: tmp_path / f"old.{verb}" for verb in VERBS}
    before = {}
    for verb, path in paths.items():
        path.write_bytes(b"junk\n" * 1000)
        path.chmod(0o600)
        before[verb] = path.stat().st_ino
    assert _write_each_verb(tmp_path, paths) == fresh_outputs
    for verb, path in paths.items():
        after = path.stat()
        assert after.st_ino == before[verb] and stat.S_IMODE(after.st_mode) == 0o600


def test_an_output_symlink_stays_a_link_to_the_updated_file(tmp_path, fresh_outputs):
    links, targets = {}, {}
    for verb in VERBS:
        targets[verb] = tmp_path / f"target.{verb}"
        targets[verb].write_bytes(b"junk\n" * 1000)
        links[verb] = tmp_path / f"link.{verb}"
        links[verb].symlink_to(targets[verb])
    assert _write_each_verb(tmp_path, links) == fresh_outputs
    for verb in VERBS:
        assert links[verb].is_symlink() and links[verb].resolve() == targets[verb]
        assert targets[verb].read_bytes() == fresh_outputs[verb]


def test_a_device_or_fifo_output_is_written_as_a_stream(workspace, capsys):
    tmp, bundle = workspace
    msg = tmp / "msg.txt"
    msg.write_text("x + a\n")
    encode = ["encode", "--code", str(bundle), "--in", str(msg), "--out"]
    assert main(encode + [os.devnull]) == 0
    fifo = tmp / "fifo"
    os.mkfifo(fifo)
    read = []
    reader = threading.Thread(target=lambda: read.append(fifo.read_text()), daemon=True)
    reader.start()
    assert main(encode + [str(fifo)]) == 0
    reader.join(timeout=10)
    assert read == ["x^5 + a^3953*x^4 + a^1333*x^3 + a^2604*x^2 + a^1596*x + a^760\n"]
    assert capsys.readouterr() == ("", "")


def test_a_directory_output_is_one_error_line(workspace, capsys):
    tmp, bundle = workspace
    msg = tmp / "msg.txt"
    msg.write_text("x + a\n")
    capsys.readouterr()
    assert main(["encode", "--code", str(bundle), "--in", str(msg), "--out", str(tmp)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and err.count("\n") == 1
    assert "Is a directory" in err


def test_no_output_but_a_regular_file_is_cut(workspace, monkeypatch):
    tmp, bundle = workspace
    msg = tmp / "msg.txt"
    msg.write_text("x + a\n")
    cut = []
    ftruncate = os.ftruncate
    monkeypatch.setattr(os, "ftruncate", lambda fd, n: cut.append(n) or ftruncate(fd, n))
    encode = ["encode", "--code", str(bundle), "--in", str(msg), "--out"]
    assert main(encode + [os.devnull]) == 0
    fifo = tmp / "fifo"
    os.mkfifo(fifo)
    reader = threading.Thread(target=fifo.read_bytes, daemon=True)
    reader.start()
    assert main(encode + [str(fifo)]) == 0
    reader.join(timeout=10)
    assert cut == []
    assert main(encode + [str(tmp / "cw.txt")]) == 0
    assert cut == [len((tmp / "cw.txt").read_bytes())]


# -- newlines ------------------------------------------------------------------

RECEIVED = ("x^5 + a^3953*x^4 + a^1333*x^3 + a^2604*x^2 + a^1596*x + a^760\n"
            "+ a^2 + a^1367x^3\n")


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
@pytest.mark.parametrize("verb, text", [("encode", "x\n+ a\n"), ("decode", RECEIVED)])
def test_crlf_and_lone_cr_inputs_read_as_their_lf_twins(workspace, capsys, newline, verb, text):
    tmp, bundle = workspace
    outputs = []
    for name, body in (("lf", text), ("other", text.replace("\n", newline))):
        (tmp / f"{name}.txt").write_bytes(body.encode())
        assert main([verb, "--code", str(bundle), "--in", str(tmp / f"{name}.txt"),
                     "--out", str(tmp / f"{name}.out")]) == 0
        outputs.append((tmp / f"{name}.out").read_bytes())
    assert outputs[0] == outputs[1] and b"\r" not in outputs[0]
    if verb == "decode":
        assert b"status = ok" in outputs[0]


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_a_parse_error_keeps_its_position_in_a_crlf_file(workspace, capsys, newline):
    tmp, bundle = workspace
    errors = []
    for name, sep in (("lf", "\n"), ("other", newline)):
        path = tmp / f"{name}.txt"
        path.write_bytes(f"x + a{sep}+ a^2 + ${sep}".encode())
        capsys.readouterr()
        assert main(["decode", "--code", str(bundle), "--in", str(path)]) == 2
        errors.append(capsys.readouterr().err.replace(str(path), "PATH"))
    assert errors[0] == errors[1] == "error: unexpected character '$' (at position 14)\n"


# -- verb dispatch against the argument tree ------------------------------------

def _request(argv, capsys):
    """main's exit code, stdout lines but simulate's timing and stderr."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, [l for l in out.splitlines() if not l.startswith("wall_time")], err


@pytest.fixture
def dispatch_corpus(workspace):
    tmp, bundle = workspace
    (tmp / "msg.txt").write_text("x + a\n")
    (tmp / "rx.txt").write_text(RECEIVED)
    b, m, r, c = (str(tmp / f) for f in ("code.bundle", "msg.txt", "rx.txt", "code.cfg"))
    valid = [["build", "--config", c], ["encode", "--code", b, "--in", m],
             ["decode", "--code", b, "--in", r],
             ["simulate", "--code", b, "--trials", "2", "--weights", "1"],
             ["paper-example", "--which", "2"],
             ["oracle", "--code", b, "--budget", "100", "--trials", "2"]]
    helps = [[argv[0], "-h"] for argv in valid] + [["-h"], ["--help"]]
    usage = [[], ["frobnicate"], ["frobnicate", "--code", b], ["decode", "--code", b], ["build"],
             ["paper-example", "--which", "4"], ["decode", "--code", b, "--in"],
             ["decode", "--code", b, "--in", r, "extra"],
             ["encode", "--code", b, "--in", m, "--bogus"],
             ["decode", "--code", b, "--in", r, "--", "extra"], ["decode", "--", "--code", b],
             ["decode", "--co", b, "--in", r], ["simulate", "--co", b, "--tr", "2", "--we", "0"],
             ["decode", "--code", b, "--in", m, "--in", r],
             ["--code", b, "decode", "--in", r], ["-h", "decode"], ["--", "decode"]]
    return valid + helps + usage


def test_verb_dispatch_agrees_with_the_argument_tree(dispatch_corpus, capsys, monkeypatch):
    direct = [_request(argv, capsys) for argv in dispatch_corpus]
    tree, _ = cli._parser()
    # with no verbs to dispatch to, main hands every argv to the tree
    monkeypatch.setattr(cli, "_parser", lambda: (tree, {}))
    assert [_request(argv, capsys) for argv in dispatch_corpus] == direct
    assert [code for code, _, _ in direct[:6]] == [0] * 6


def test_a_verb_goes_to_its_subparser_and_not_the_tree(dispatch_corpus, capsys, monkeypatch):
    tree, _ = cli._parser()

    def refuse(*args, **kwargs):
        raise AssertionError("the tree parsed a request that names its verb first")

    monkeypatch.setattr(tree, "parse_args", refuse)
    monkeypatch.setattr(tree, "parse_known_args", refuse)
    assert [_request(argv, capsys)[0] for argv in dispatch_corpus[:6]] == [0] * 6


def test_a_trailing_argument_is_the_tree_s_error(dispatch_corpus, capsys):
    argv = next(a for a in dispatch_corpus if a[-1:] == ["extra"] and "--" not in a)
    code, out, err = _request(argv, capsys)
    assert (code, out) == (2, [])
    assert err.startswith("usage: skewrs [-h] {build,")
    assert err.endswith("\nskewrs: error: unrecognized arguments: extra\n")


# -- a locale that is not UTF-8 ------------------------------------------------

# the paper code with its field generator, modulus and alpha written in α
ALPHA_CONFIG = re.sub(r"\ba\b", "α", EXAMPLE_CONFIGS[1])


def _skewrs(argv, cwd, utf8):
    """skewrs in a new process, under a C locale that Python does not coerce
    to UTF-8 unless utf8 is set."""
    root = pathlib.Path(__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("LC_", "LANG", "PYTHONIOENCODING", "PYTHONUTF8"))}
    env.update(PYTHONPATH=str(root / "src"), LC_ALL="C", PYTHONCOERCECLOCALE="0",
               PYTHONUTF8="1" if utf8 else "0")
    return subprocess.run([sys.executable, "-m", "skewrs", *argv], capture_output=True,
                          env=env, cwd=cwd, timeout=60)


def test_outputs_are_utf8_under_a_locale_that_is_not(tmp_path):
    cfg = tmp_path / "alpha.cfg"
    cfg.write_text(ALPHA_CONFIG, encoding="utf-8")
    (tmp_path / "msg.txt").write_text("x + α\n", encoding="utf-8")
    (tmp_path / "rx.txt").write_text(RECEIVED.replace("a", "α"), encoding="utf-8")
    files = {}
    for utf8 in (True, False):
        out = tmp_path / ("utf8" if utf8 else "c")
        out.mkdir()
        for argv in (["build", "--config", "alpha.cfg", "--out", f"{out}/code.bundle"],
                     ["encode", "--code", f"{out}/code.bundle", "--in", "msg.txt",
                      "--out", f"{out}/cw.txt"],
                     ["decode", "--code", f"{out}/code.bundle", "--in", "rx.txt",
                      "--out", f"{out}/report.txt"]):
            run = _skewrs(argv, tmp_path, utf8)
            assert (run.returncode, run.stderr) == (0, b""), run.stderr
        files[utf8] = {f: (out / f).read_bytes() for f in ("code.bundle", "cw.txt", "report.txt")}
    assert files[False] == files[True]
    assert "message = x + α\n".encode() in files[False]["report.txt"]


@pytest.mark.parametrize("argv", [["build", "--config", "alpha.cfg"],
                                  ["encode", "--code", "alpha.cfg", "--in", "msg.txt"]],
                         ids=["build", "encode"])
def test_a_stdout_that_cannot_carry_the_output_is_one_error_line(tmp_path, argv):
    (tmp_path / "alpha.cfg").write_text(ALPHA_CONFIG, encoding="utf-8")
    (tmp_path / "msg.txt").write_text("x + α\n", encoding="utf-8")
    run = _skewrs(argv, tmp_path, utf8=False)
    assert (run.returncode, run.stdout) == (2, b"")
    assert run.stderr.startswith(b"error: stdout cannot carry the output: ")
    assert run.stderr.count(b"\n") == 1 and b"Traceback" not in run.stderr
