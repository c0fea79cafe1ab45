from pathlib import Path

import pytest

from skewrs import run_example

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
