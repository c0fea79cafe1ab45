"""Fuzz of the CLI contract: ``main`` exits 0, 1 or 2, prints exactly one
``error:`` line on 2 and never a traceback.

Each example runs ``build``, ``encode`` or ``decode`` in-process on one of
the configs in ``demos/configs``, used as the bundle.  It mutates the
message or received-word text (dropped characters, junk symbols, huge or
non-decimal digits, deep nesting, empty files) and the config's keys and
values.
"""

import contextlib
import io
import pathlib

import pytest
from hypothesis import event, given, settings, strategies as st

from skewrs.cli import main

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "demos" / "configs"

# per config: a message, and a codeword plus an error that decodes
WORDS = {
    "gf4096": ("x + a",
               "x^5 + a^3953*x^4 + a^1333*x^3 + a^2604*x^2 + a^1596*x + a^760 + a^5x^2"),
    "rational": ("z + a",
                 "(z + a)*x^4 + (z^2 + a^2)/(z^5 + a^2*z)*x^3"
                 " + (a*z^6 + z^4 + a*z^2 + 1)/(z^5 + a^2*z^4 + a^2*z + a)*x^2"
                 " + (a^2*z^6 + a*z^4 + z^2 + a^2)/(z^4 + a^2)*x"
                 " + (a^2*z^6 + a*z^4)/(z^5 + z^4 + a^2*z + a^2) + (1/z)x^3"),
    "cyclotomic": ("chi^2 + 3x",
                   "3*x^5 + (3/2*chi^5 + 3/2*chi^4 + 3/2*chi^3 + chi^2 + 3/2)*x^4"
                   " + (-1/2*chi^5 - 1/2*chi^4 + 3/2*chi^3 + 3/2*chi^2 + 1)*x^3"
                   " + (2*chi^5 + 1/2*chi^3 + 1/2*chi^2 + 3/2*chi + 3/2)*x^2"
                   " + (chi^5 + chi^4 + 5/2*chi^3 + 3/2*chi^2 + 5/2*chi + 3)*x"
                   " - 1/2*chi^4 + 1/2*chi^3 + 1/2*chi^2 + 1/2 + chi*x^2"),
}

JUNK = ["$", "²", "٣", "３", "q", "x", "a", "z", "chi", "^", "(", ")", "*", "/", "+", "-",
        " ", "\n", "=", ",", "#", "é", "\x00", "_", "0", "^-1", "^0"]


@st.composite
def mutated(draw, text):
    """text after a few edits, each at a drawn position."""
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(["drop"] * 3 + ["junk"] * 3 + ["digits", "nest", "minus",
                                                                   "empty"]))
        if edit == "drop":
            text = text[:i] + text[i + 1:]
        elif edit == "junk":
            text = text[:i] + draw(st.sampled_from(JUNK)) + text[i:]
        elif edit == "digits":
            digits = draw(st.sampled_from(["9", "1", "٣", "²"])) * draw(st.integers(1, 6000))
            text = text[:i] + draw(st.sampled_from(["", "^"])) + digits + text[i:]
        elif edit == "nest":
            d = draw(st.integers(1, 300))
            text = "(" * d + text + ")" * d
        elif edit == "minus":
            text = "-" * draw(st.integers(1, 300)) + text
        else:
            text = ""
    return text


@st.composite
def configs(draw, text):
    """The config with some lines dropped, duplicated, renamed or given a
    mutated value."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        key, sep, value = lines[i].partition("=")
        edit = draw(st.sampled_from(["drop", "duplicate", "rename", "value"]))
        if edit == "drop":
            del lines[i]
        elif edit == "duplicate":
            lines.insert(i + 1, f"{key}={draw(mutated(value))}")
        elif edit == "rename":
            lines[i] = f"{draw(mutated(key))}{sep}{value}"
        else:
            lines[i] = f"{key}{sep}{draw(mutated(value))}"
        if not lines:
            break
    return "\n".join(lines) + "\n"


@st.composite
def requests(draw):
    name = draw(st.sampled_from(sorted(WORDS)))
    config = (CONFIGS / f"{name}.cfg").read_text()
    if draw(st.booleans()):
        config = draw(configs(config))
    verb = draw(st.sampled_from(["build", "encode", "decode"]))
    message, word = WORDS[name]
    return verb, config, draw(mutated(message if verb == "encode" else word))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300, deadline=None)
@given(request=requests())
def test_main_keeps_its_contract_on_mutated_input(fuzz_dir, request):
    verb, config, text = request
    cfg, infile = fuzz_dir / "code.cfg", fuzz_dir / "in.txt"
    cfg.write_text(config, encoding="utf-8")
    infile.write_text(text, encoding="utf-8")
    if verb == "build":
        argv = ["build", "--config", str(cfg)]
    else:
        argv = [verb, "--code", str(cfg), "--in", str(infile)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    err = err.getvalue()
    event(f"{verb} exits {status}")
    assert status in (0, 1, 2)
    if status == 2:
        assert err.startswith("error:") and err.count("\n") == 1, err
    else:
        assert err == ""
