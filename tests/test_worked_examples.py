from pathlib import Path

import pytest

from skewrs import EXAMPLE_CONFIGS, run_example
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
