import pathlib

import pytest

from skewrs import EXAMPLE_CONFIGS, cli
from skewrs.cli import main, parse_weights


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


def test_oracle_declines_infinite_field(tmp_path, capsys):
    cfg = tmp_path / "rf.cfg"
    cfg.write_text(EXAMPLE_CONFIGS[2])
    bundle = tmp_path / "rf.bundle"
    assert main(["build", "--config", str(cfg), "--out", str(bundle)]) == 0
    capsys.readouterr()
    assert main(["oracle", "--code", str(bundle), "--trials", "20"]) == 0
    out = capsys.readouterr().out
    assert "declined" in out
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


@pytest.mark.parametrize("spec", ["3:1", "x", "1,y"])
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
