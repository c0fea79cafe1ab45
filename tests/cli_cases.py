"""The CLI's cases, each request a separate process.

    PYTHONPATH=src python tests/cli_cases.py

It takes no arguments and needs only the standard library and an importable
skewrs.  Every request is one ``python -m skewrs ...`` process under a
timeout, and every one is held to the whole CLI contract:

- its exit code is the one its case pins;
- no "Traceback" appears in stdout, stderr or a file it wrote with --out;
- on exit 0 or 1, stderr is empty;
- on exit 2, stdout is empty and stderr is one line that starts with
  "error: " and equals the case's text, or holds it where that text does not
  start with "error: ".

What the cases record (reports, summaries, codewords, error lines) must equal
``tests/data/cli_cases.txt``, a section per case headed ``== <case>``.  Each
line is recorded with its trailing blanks stripped, and a line past 1,000
characters as its key and the first 16 hex digits of its sha256.  The run
prints each case's outcome and the recorded lines' diff, and exits 1 if any
check failed.  pytest does not collect this file.
"""
import difflib
import hashlib
import itertools
import pathlib
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos" / "configs"
RECORDED = ROOT / "tests" / "data" / "cli_cases.txt"
LONG = 1000     # a recorded line past this many characters is kept as a digest


class Failed(Exception):
    pass


class Run:
    """One run's scratch directory, its requests and the lines they record."""

    def __init__(self, work):
        self.work = work
        self.lines = []
        self.names = itertools.count()

    def file(self, text, name):
        path = self.work / name
        path.write_text(text)
        return path

    def config(self, base, *settings):
        """A config file: base is a demo config's name or its "key = value"
        lines joined by "; ", and each setting replaces base's line for its
        key."""
        lines = base.split("; ") if " = " in base else \
            (DEMOS / f"{base}.cfg").read_text().splitlines()
        for setting in settings:
            key = setting.split(" = ")[0]
            lines = [setting if line.split(" = ")[0] == key else line for line in lines]
        return self.file("\n".join(lines) + "\n", f"{next(self.names)}.cfg")

    def skewrs(self, *args, exit=0, text="", lines=(), timeout=60):
        """Run one request and check it against the contract.  Returns stderr
        on exit 2, else the file written with --out, else stdout; each of
        lines must be a line of what it returns."""
        args = [str(a) for a in args]
        written = pathlib.Path(args[args.index("--out") + 1]) if "--out" in args else None
        if written:
            written.unlink(missing_ok=True)
        shown = " ".join(["skewrs", *args]).replace(f"{self.work}/", "")
        try:
            done = subprocess.run([sys.executable, "-m", "skewrs", *args],
                                  capture_output=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise Failed(f"{shown}: still running after {timeout} s") from None
        out, err = done.stdout.decode(errors="replace"), done.stderr.decode(errors="replace")
        result = written.read_text("utf-8", "replace") if written and written.exists() else out
        faults = [f"exit {done.returncode}, not {exit}"] if done.returncode != exit else []
        if written and exit != 2 and not written.exists():
            faults.append(f"no {written.name} written")
        if "Traceback" in out + err + result:
            faults.append("a traceback")
        if exit != 2 and err:
            faults.append("stderr is not empty")
        if exit == 2:
            line = err[:-1]
            if out or err.count("\n") != 1 or not err.endswith("\n") \
                    or not line.startswith("error: ") \
                    or not (line == text if text.startswith("error: ") else text in line):
                faults.append(f"not one error line holding {text!r} and an empty stdout")
            result = err
        faults += [f"no line {want!r}" for want in lines if want not in result.splitlines()]
        if faults:
            raise Failed(f"{shown}: {'; '.join(faults)}\n{out}{err}")
        return result

    def record(self, case, text, keep=lambda line: True):
        """text's lines that keep keeps, under the header "== case"."""
        self.lines.append(f"== {case}")
        for line in text.splitlines():
            line = line.rstrip(" ")
            if len(line) > LONG:
                digest = hashlib.sha256(line.encode()).hexdigest()[:16]
                line = f"{line.split(' = ')[0]} = sha256 {digest}"
            if keep(line):
                self.lines.append(line)

    def bundle(self, config):
        path = self.work / "code.bundle"
        self.skewrs("build", "--config", config, "--out", path)
        return path

    def encode(self, code, message):
        """The codeword of message, written with --out, without its newline."""
        return self.skewrs("encode", "--code", code, "--in", self.file(f"{message}\n", "msg.txt"),
                           "--out", self.work / "cw.txt").rstrip("\n")

    def decode(self, code, word, exit, case=None, timeout=60, lines=()):
        """Decode word with --out and record the report under case."""
        report = self.skewrs("decode", "--code", code, "--in", self.file(f"{word}\n", "rx.txt"),
                             "--out", self.work / "report.txt", exit=exit, timeout=timeout,
                             lines=lines)
        if case:
            self.record(case, report)

    def round_trip(self, name, config, message, words, build=True, decode_timeout=60):
        """Build config to a bundle (where build), encode message and decode
        the codeword plus each error of words, (error, exit, label), with
        its report recorded under "name label"."""
        code = self.bundle(config) if build else config
        codeword = self.encode(code, message)
        for error, exit, label in words:
            self.decode(code, f"{codeword} + {error}", exit, f"{name} {label}", decode_timeout)


F8Z = ("field.kind = rational-function; field.p = 2; field.degree = 3; "
       "field.modulus = a^3 + a + 1; sigma.mobius = 0, 1, 1, a; alpha = z; r = 0; delta = 5")


def cold_tables(run):
    # each request walks its field's exp/log tables from scratch
    code = run.bundle(DEMOS / "gf4096.cfg")
    codeword = run.encode(code, "x + a")
    run.decode(code, f"{codeword} + a^5x^2", 0, lines=["status = ok"])


def infinite_fields(run):
    # F_4(z) and Q(chi_7), n = 5 and 6, t = 2, weight 2 ok on the direct
    # branch and weight 3 failed on the echelon one; a weight-3 word over
    # F_8(z), n = 9; GF(9)(z), sigma(z) = (z + a)/z of order 5, whose F_q[z]
    # work takes the generic kernels; and F_4(z) with the affine sigma(z) =
    # (z + 1)/a of order 3, n = 3, t = 1, whose substitution divides by a
    # constant, with the alpha that find_normal_element gives
    weight_2 = "z*x^4 + (z + a)/(z + 1)*x"
    for name, config, build, message, words in (
            ("rational", DEMOS / "rational.cfg", True, "z + a",
             [(weight_2, 0, "weight 2"), (f"{weight_2} + a*x^2", 1, "weight 3")]),
            ("cyclotomic", DEMOS / "cyclotomic.cfg", True, "x + chi",
             [("chi^2*x^5 + (1/2 - chi)*x", 0, "weight 2"),
              ("chi^2*x^5 + (1/2 - chi)*x + 3*x^3", 1, "weight 3")]),
            ("f8z", run.config(F8Z), False, "x^4 + z*x + a",
             [("z*x^8 + (z + a)/(z + 1)*x^2 + a*x^5", 1, "weight 3")]),
            ("gf9z", run.config("field.kind = rational-function; field.p = 3; field.degree = 2; "
                                "field.modulus = a^2 + 1; sigma.mobius = 1, a, 1, 0; alpha = z; "
                                "r = 0; delta = 5"), False, "z + a",
             [(weight_2, 0, "weight 2"), (f"{weight_2} + a*x^2", 1, "weight 3")]),
            ("affine", run.config("field.kind = rational-function; field.p = 2; "
                                  "field.degree = 2; field.modulus = a^2 + a + 1; "
                                  "sigma.mobius = 1, 1, 0, a; alpha = (a*z + a)/(z); r = 0; "
                                  "delta = 3"), False, "z + a",
             [("z*x^2", 0, "weight 1"), ("z*x^2 + (z + a)/(z + 1)*x", 1, "weight 2")])):
        run.round_trip(name, config, message, words, build, decode_timeout=20)


def untabled_base(run):
    # GF(2^17)(z), sigma(z) = 1/(z + 1) of order 3, n = 3, t = 1: a base with
    # no log tables takes poly_mul, poly_gcrd and poly_divmod, and every
    # conjugate sum packs; each request writes to stdout
    code = run.config("field.kind = rational-function; field.p = 2; field.degree = 17; "
                      "field.modulus = a^17 + a^3 + 1; sigma.mobius = 0, 1, 1, 1; alpha = z; "
                      "r = 0; delta = 3")
    run.record("gf2_17z build", run.skewrs("build", "--config", code, timeout=30))
    codeword = run.skewrs("encode", "--code", code, "--in", run.file("a*z + a^9\n", "msg.txt"),
                          timeout=30)
    run.record("gf2_17z encode", codeword)
    for error, exit, label in (("(a^5*z + 1)/(z + a^3)*x", 0, "weight 1"),
                               ("(a^5*z + 1)/(z + a^3)*x + a^7*x^2", 1, "weight 2")):
        rx = run.file(f"{codeword.rstrip()} + {error}\n", "rx.txt")
        run.record(f"gf2_17z {label}",
                   run.skewrs("decode", "--code", code, "--in", rx, exit=exit, timeout=30))


def scale(run):
    # GF(2^32) n = 32, delta = 17 (no log tables) and F_8(z) n = 9, delta = 5
    # at weight t; F_16(z) n = 17 and F_8(z) delta = 7 at weight t + 1, where
    # the dual sums are the whole decode; Q(chi_23), sigma(chi) = chi^5,
    # n = 22, delta = 17, at weight t and t + 1
    gf2_32 = ("field.kind = finite-field; field.p = 2; field.degree = 32; "
              "field.modulus = a^32 + a^7 + a^3 + a^2 + 1; sigma.frobenius_power = 1; "
              "alpha = a^31 + a^30 + a^25 + a^19 + a^16 + a^14 + a^11 + a^10 + a^7 + a^5 + "
              "a^3 + a^2 + 1; r = 0; delta = 17")
    q23 = ("field.kind = cyclotomic; cyclotomic.order = 23; sigma.exponent = 5; alpha = chi; "
           "r = 0; delta = 17")
    q23_message = "chi*x^5 + x^4 + (chi^3 - 1)*x^2 + 1/2*x + chi^5"
    q23_error = ("chi*x^21 + x^19 + (1/2 - chi)*x^16 + chi^2*x^13 + 3*x^10 + (chi^7 + 1)*x^7 + "
                 "x^4 + chi^11*x^2")
    gf2_32_message = " + ".join(f"a^{i}*x^{i}" for i in range(15, 0, -1)) + " + 1"
    for name, config, message, error, exit in (
            ("gf2_32", run.config(gf2_32), gf2_32_message,
             "a*x^31 + x^27 + (a + 1)*x^22 + a^9*x^18 + a^31*x^13 + x^9 + a^2*x^4 + a^30", 0),
            ("f8z", run.config(F8Z), "x^4 + z*x^3 + a*x^2 + (z + a)/(z + 1)*x + 1",
             "(z + a)/(z + 1)*x^6 + a*x", 0),
            ("f16z", run.config(F8Z, "field.degree = 4", "field.modulus = a^4 + a + 1"),
             "x^12 + z*x^5 + a", "z*x^16 + (z + a)/(z + 1)*x^7 + a*x^2", 1),
            ("f8z_d7", run.config(F8Z, "delta = 7"), "x^2 + z*x + a",
             "z*x^8 + (z + a)/(z + 1)*x^5 + a*x^3 + (z^2 + 1)*x", 1),
            ("q23", run.config(q23), q23_message, q23_error, 0),
            ("q23_t1", run.config(q23), q23_message, f"{q23_error} + 2*x", 1)):
        code = run.bundle(config)
        codeword = run.encode(code, message)
        run.record(f"{name} encode", f"codeword = {codeword}")
        run.decode(code, f"{codeword} + {error}", exit, f"{name} decode")


def cli_contract(run):
    # a literal past the interpreter's int conversion limit is a usage error
    run.skewrs("decode", "--code", DEMOS / "gf4096.cfg", "--in",
               run.file(f"a^{'1' * 5000}\n", "rx.txt"),
               exit=2, text="integer literal of 5000 digits is too long")


def field_bounds(run):
    # a characteristic past 2^31 is refused before its primality test, a
    # cyclotomic field past its cost bound before the root order is
    # factorised, and an F_q(z) whose sigma has order past 17 while that
    # order is walked; two reducible GF(2^12) moduli, a square and a product
    # of factors whose degrees all divide 12, by the irreducibility test
    gf2_12 = "field.kind = finite-field; field.p = 2; field.degree = 12; field.modulus = "
    sigma = "; sigma.frobenius_power = 10; alpha = a; r = 0; delta = 5"
    for config, text in (
            ("field.kind = finite-field; field.p = 1000000000000000003; field.degree = 1; "
             "field.modulus = a + 1; sigma.frobenius_power = 1; alpha = a; r = 0; delta = 1",
             "2^31"),
            ("field.kind = cyclotomic; cyclotomic.order = 100003; sigma.exponent = 2; "
             "alpha = chi; r = 0; delta = 2", "10^7"),
            ("field.kind = rational-function; field.p = 2; field.degree = 8; "
             "field.modulus = a^8 + a^4 + a^3 + a^2 + 1; sigma.mobius = a, 0, 0, 1; "
             "alpha = (z+1)/(z+a); r = 0; delta = 2", "n <= 17"),
            (f"{gf2_12}a^12 + 1{sigma}", "error: modulus is not irreducible"),
            (f"{gf2_12}a^12 + a^9 + a^8 + a^5 + a^2 + a{sigma}", "not irreducible")):
        run.skewrs("build", "--config", run.config(config), exit=2, text=text, timeout=20)


def malformed_values(run):
    # a value that does not parse names its key, and for sigma.mobius which
    # of its four values; the position counts within the value
    got = [f"{name}: " + run.skewrs("build", "--config", run.config(base, setting), exit=2,
                                    text=setting.split(" = ")[0], timeout=20)
           for name, base, setting in (
               ("modulus", "gf4096", "field.modulus = a^12 + a^7 + a^6 + $ + 1"),
               ("mobius", "rational", "sigma.mobius = 1, a, 1, a^2 + $"),
               ("alpha", "gf4096", "alpha = a^2 + $"))]
    run.record("malformed config values", "".join(got))


def normal_element(run):
    # an alpha whose conjugates are dependent (zero, one, a^1365 in GF(2^12)'s
    # fixed field GF(4), a + a^2, and one over F_4(z) and Q(chi_7)) is refused
    # at r = 0, at r = 2 and at delta = n, from each step of the root walk
    for name, n, alpha in (("gf4096", 6, "0"), ("gf4096", 6, "1"), ("gf4096", 6, "a^1365"),
                           ("gf4096", 6, "a + a^2"), ("rational", 5, "1"), ("cyclotomic", 6, "1")):
        for setting in ("r = 0", "r = 2", f"delta = {n}"):
            run.skewrs("build", "--config", run.config(name, f"alpha = {alpha}", setting),
                       exit=2, text="alpha is not a normal element")


def generators(run):
    # at delta = n the dual table is read off g, and at r = 2 g's roots wrap
    # past m = 0: beta and g of each demo config so built, of F_8(z) n = 9 at
    # delta = 7 and of Q(chi_11) n = 10 at delta = 9, each at r = 0 and 2
    chi11 = "field.kind = cyclotomic; cyclotomic.order = 11; sigma.exponent = 2; alpha = chi"
    for name, base, settings in (
            ("gf4096", "gf4096", ["delta = 6", "r = 2"]),
            ("rational", "rational", ["delta = 5", "r = 2"]),
            ("cyclotomic", "cyclotomic", ["delta = 6", "r = 2"]),
            ("f8z", F8Z.replace("delta = 5", "delta = 7"), ["r = 0", "r = 2"]),
            ("chi11", f"{chi11}; r = 0; delta = 9", ["r = 0", "r = 2"])):
        for setting in settings:
            summary = run.skewrs("build", "--config", run.config(base, setting))
            run.record(f"{name} {setting}", summary,
                       keep=lambda line: line.startswith(("beta = ", "g = ")))


def echelon_off_g(run):
    # at delta = n the dual table is read off g: weight t + 1 over F_4(z) at
    # r = 2 (delta = n = 5) and over Q(chi_7) at delta = 6 = n
    for name, setting, message, error in (
            ("rational", "r = 2", "z + a", "z*x^4 + (z + a)/(z + 1)*x + a*x^2"),
            ("cyclotomic", "delta = 6", "chi", "chi^2*x^5 + (1/2 - chi)*x + 3*x^3")):
        run.round_trip(f"{name} {setting}", run.config(name, setting), message,
                       [(error, 1, "weight 3")], build=False)


def decode_failures(run):
    # each failure reason decode can reach, on GF(2^4), sigma = Frobenius,
    # alpha = a^11, r = 0; the recorded report holds the exact failure line
    gf16 = ("field.kind = finite-field; field.p = 2; field.degree = 4; "
            "field.modulus = a^4 + a + 1; sigma.frobenius_power = 1; alpha = a^11; r = 0; "
            "delta = ")
    for delta, word in ((3, "a^4 + a^14*x + a^2*x^2 + a^14*x^3"),
                        (3, "a^12 + a^4*x + a^5*x^2 + a^6*x^3"),
                        (3, "a^11 + a*x + a^6*x^2 + a^12*x^3"),
                        (2, "a^5 + a^6*x + a^7*x^2 + a^13*x^3")):
        run.decode(run.config(f"{gf16}{delta}"), word, 1, word)


def oracle(run):
    # GF(32), n = 5, delta = 5: the minors, the generator check, the 316
    # error patterns of weight <= 2 up to scale and 200 seeded trials, and
    # past --budget 300 the pattern check skipped
    gf32 = run.config("field.kind = finite-field; field.p = 2; field.degree = 5; "
                      "field.modulus = a^5 + a^2 + 1; sigma.frobenius_power = 1; alpha = a^13; "
                      "r = 0; delta = 5")
    run.skewrs("oracle", "--code", gf32, lines=[
        "generator check: pass", "exhaustive minimum distance = 5 (designed 5)",
        "nearest-codeword equivalence: 0 disagreements in 316 error patterns up to scale",
        "failures = 0"])
    run.skewrs("oracle", "--code", gf32, "--budget", 300, lines=[
        "nearest-codeword equivalence skipped: 316 error patterns up to scale exceed budget 300"])


def oracle_on_demos(run):
    # the paper's GF(2^12) code, its 61432 error patterns up to scale
    # decoded, F_4(z) and Q(chi_7): the minors and the generator check run
    # on every field
    for name in ("gf4096", "rational", "cyclotomic"):
        run.skewrs("oracle", "--code", DEMOS / f"{name}.cfg", "--trials", 20,
                   lines=["exhaustive minimum distance = 5 (designed 5)"])


CASES = [("Cold tables", cold_tables), ("Infinite fields", infinite_fields),
         ("Untabled-base F_q(z) round trip", untabled_base), ("Scale round trip", scale),
         ("CLI contract", cli_contract), ("Field bounds", field_bounds),
         ("Malformed config values", malformed_values), ("Normal element", normal_element),
         ("Generators at delta = n and r = 2", generators),
         ("Echelon reports where the dual table comes off g", echelon_off_g),
         ("Decode failures", decode_failures), ("Oracle", oracle),
         ("Oracle on the demo configs", oracle_on_demos)]


def main():
    failed = False
    with tempfile.TemporaryDirectory() as work:
        run = Run(pathlib.Path(work))
        for title, case in CASES:
            start = time.perf_counter()
            try:
                case(run)
            except Failed as exc:
                failed = True
                print(f"FAIL {title}: {exc}")
            else:
                print(f"ok   {title} ({time.perf_counter() - start:.1f} s)")
    recorded = RECORDED.read_text().splitlines()
    diff = list(difflib.unified_diff(recorded, run.lines, str(RECORDED.relative_to(ROOT)),
                                     "this run", lineterm=""))
    print("\n".join(diff) or "recorded lines: equal")
    return 1 if failed or diff else 0


if __name__ == "__main__":
    sys.exit(main())
