import re
from pathlib import Path

import pytest

import skewrs
from skewrs import (BRANCH_DIRECT, BRANCH_ECHELON, EXAMPLE_CONFIGS, SkewPolynomial, cli, pgz,
                    run_example, worked_examples)
from skewrs.worked_examples import Transcript

DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("which", [1, 2, 3])
def test_worked_example_transcript(which):
    transcript = run_example(which)
    failed = [c for c in transcript.checks if not c.ok]
    assert not failed, transcript.render()


def test_unknown_example_rejected():
    with pytest.raises(ValueError):
        run_example(4)


@pytest.mark.parametrize("which", [1, 2, 3])
def test_worked_example_transcript_is_pinned(which):
    # the recorded output of `skewrs paper-example --which N`, byte for byte
    recorded = DATA / f"paper_example_{which}.txt"
    assert run_example(which).render() + "\n" == recorded.read_text(encoding="utf-8")


def test_a_mismatch_renders_both_sides():
    transcript = Transcript("a mismatched example")
    transcript.compare("agreeing value", 3, 3)
    transcript.compare("diverging value", "x + 1", "x")
    assert not transcript.passed
    assert transcript.render() == "\n".join([
        "a mismatched example",
        "  [PASS] agreeing value",
        "  [FAIL] diverging value",
        "         expected: x",
        "         computed: x + 1",
        "  => MISMATCH",
    ])


@pytest.mark.parametrize("which, name", [(1, "gf4096"), (2, "rational"), (3, "cyclotomic")])
def test_demo_configs_are_the_example_configs(which, name):
    # CI and the README build the paper codes from these files, while the
    # transcripts build them from EXAMPLE_CONFIGS
    path = Path(__file__).parent.parent / "demos" / "configs" / f"{name}.cfg"
    assert path.read_bytes() == EXAMPLE_CONFIGS[which].encode("utf-8")


# the scenarios per example, each of which decodes its word once
SCENARIOS = {1: 2, 2: 1, 3: 1}


def _plus_one(code, f):
    return f + SkewPolynomial(code.ctx, (code.ctx.one,))


# each report field the transcripts read: a wrong value for it, the label of
# its check, and the checks rebuilt from the field, which may fail with it
PLANTS = {
    "mu": (lambda code, r: r.mu + 1, "rank of syndrome matrix", ()),
    "rho": (lambda code, r: _plus_one(code, r.rho), "locator seed",
            ("locator evaluation vector", "locator evaluation vector has no zero",
             "shift matrix of the seed", "evaluated shift matrix", "row echelon form",
             "rows removed")),
    "branch": (lambda code, r: BRANCH_ECHELON if r.branch == BRANCH_DIRECT else BRANCH_DIRECT,
               "branch", ()),
    "positions": (lambda code, r: [(k + 1) % code.n for k in r.positions], "error positions",
                  ("value system matrix",)),
    "values": (lambda code, r: [v + code.ctx.one for v in r.values], "error values", ()),
    "error": (lambda code, r: r.error[1:] + r.error[:1], "recovered error", ()),
    "message": (lambda code, r: _plus_one(code, r.message), "recovered message", ()),
}


@pytest.mark.parametrize("which", [1, 2, 3])
@pytest.mark.parametrize("field", list(PLANTS))
def test_a_wrong_report_field_fails_its_check(field, which, monkeypatch):
    wrong, label, rebuilt = PLANTS[field]

    def planted(code, y):
        report = pgz.decode(code, y)
        setattr(report, field, wrong(code, report))
        return report

    monkeypatch.setattr(worked_examples, "decode", planted)
    failed = [re.sub(r"^scenario \d+ ", "", c.label)
              for c in run_example(which).checks if not c.ok]
    assert failed.count(label) == SCENARIOS[which]
    assert set(failed) - {label} <= set(rebuilt)


def test_the_transcripts_decode_once_per_scenario_and_run_no_stage(monkeypatch):
    real_decode, real_locate = pgz.decode, pgz.locate_positions
    words = []

    def counted(code, y):
        words.append(y)
        with monkeypatch.context() as inside:   # decode itself calls locate_positions
            inside.setattr(pgz, "locate_positions", real_locate)
            return real_decode(code, y)

    def stage(*args):
        raise AssertionError("a decode stage ran outside decode")

    for name in ("syndromes", "extract_rho", "locate_positions", "error_values"):
        for module in (pgz, skewrs, worked_examples):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, stage)
    monkeypatch.setattr(worked_examples, "decode", counted)
    for which in SCENARIOS:
        transcript = run_example(which)
        assert transcript.passed, transcript.render()
    assert len(words) == sum(SCENARIOS.values())


@pytest.mark.parametrize("which", [1, 2, 3])
def test_paper_example_exits_1_on_a_failed_report(which, monkeypatch, capsys):
    # a failed report has no rho and no error: the check that reads them
    # raises, and the transcript ends in one failed check naming the exception
    def failed(code, y):
        return pgz.DecodeReport(syndromes=pgz.decode(code, y).syndromes, branch=None,
                                failure="planted failure")

    monkeypatch.setattr(worked_examples, "decode", failed)
    assert cli.main(["paper-example", "--which", str(which)]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert out.splitlines()[-4:] == [
        "  [FAIL] no check raises",
        "         expected: true",
        "         computed: AttributeError: 'NoneType' object has no attribute 'vector'",
        "  => MISMATCH"]
