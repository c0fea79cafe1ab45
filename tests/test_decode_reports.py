"""Golden decode reports: every bundled worked-example code decodes seeded
words of weight 0 to t+1, and the reports must match the recorded text
byte for byte.  Weight t+1 reaches the echelon branch and the failure
reports.

Regenerate the recorded file with ``PYTHONPATH=src python
tests/test_decode_reports.py`` after a change that is meant to alter
decode output.
"""

import random
from pathlib import Path

from skewrs import EXAMPLE_CONFIGS, SkewPolynomial, code_from_config, decode, encode

RECORDED = Path(__file__).parent / "data" / "decode_reports.txt"
WORDS_PER_WEIGHT = 5


def decode_reports_text():
    out = []
    for which in sorted(EXAMPLE_CONFIGS):
        ctx, code = code_from_config(EXAMPLE_CONFIGS[which])
        rng = random.Random(f"skewrs-decode-reports:{which}")
        for weight in range(code.t + 2):
            for index in range(WORDS_PER_WEIGHT):
                msg = SkewPolynomial(ctx, [ctx.random_element(rng)
                                           for _ in range(code.dimension)])
                y = encode(code, msg).vector(code.n)
                for pos in rng.sample(range(code.n), weight):
                    y[pos] = y[pos] + ctx.random_nonzero(rng)
                out.append(f"# example {which}, weight {weight}, word {index}\n")
                out.append(f"received = {SkewPolynomial(ctx, y)}\n")
                out.append(decode(code, y).to_text(ctx))
    return "".join(out)


def test_decode_reports_match_the_recorded_text():
    assert decode_reports_text() == RECORDED.read_text(encoding="utf-8")


if __name__ == "__main__":
    RECORDED.write_text(decode_reports_text(), encoding="utf-8")
