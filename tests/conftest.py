import random
import sys

import pytest

from skewrs import (CyclotomicField, FiniteField, RationalFunctions,
                    SkewPolynomial, build_code)

GF4096_MODULUS = "a^12 + a^7 + a^6 + a^5 + a^3 + a + 1"


@pytest.fixture(scope="session")
def gf4096():
    return FiniteField(2, 12, GF4096_MODULUS, frobenius_power=10)


@pytest.fixture(scope="session")
def rational():
    base = FiniteField(2, 2, "a^2 + a + 1", frobenius_power=0)
    return RationalFunctions(base, ("1", "a", "1", "a^2"))


@pytest.fixture(scope="session")
def cyclotomic():
    return CyclotomicField(7, 3)


@pytest.fixture(scope="session")
def all_contexts(gf4096, rational, cyclotomic):
    return {"gf4096": gf4096, "rational": rational, "cyclotomic": cyclotomic}


@pytest.fixture(scope="session")
def round_trip_contexts(all_contexts):
    """Every backend, plus F_q(z) over two bases whose elements print in
    polynomial form: a non-primitive modulus root, and odd characteristic."""
    shift = ("1", "1", "0", "1")   # sigma(z) = z + 1
    f256 = FiniteField(2, 8, "a^8 + a^4 + a^3 + a + 1", frobenius_power=0)
    f9 = FiniteField(3, 2, "a^2 + 1", frobenius_power=0)
    return dict(all_contexts, f256z=RationalFunctions(f256, shift),
                f9z=RationalFunctions(f9, shift))


@pytest.fixture(scope="session")
def code_gf(gf4096):
    return build_code(gf4096, gf4096.generator, 0, 5)


@pytest.fixture(scope="session")
def code_rf(rational):
    return build_code(rational, rational.generator, 0, 5)


@pytest.fixture(scope="session")
def code_cy(cyclotomic):
    return build_code(cyclotomic, cyclotomic.generator, 0, 5)


@pytest.fixture(scope="session")
def all_codes(code_gf, code_rf, code_cy):
    return {"gf4096": code_gf, "rational": code_rf, "cyclotomic": code_cy}


@pytest.fixture(scope="session")
def gf16():
    return FiniteField(2, 4, "a^4 + a + 1", frobenius_power=1)


@pytest.fixture(scope="session")
def gf8():
    return FiniteField(2, 3, "a^3 + a + 1", frobenius_power=1)


# an integer literal longer than the interpreter's default limit on
# converting text to int (4300 digits)
LONG_LITERAL = "1" * 5000


@pytest.fixture
def int_digit_limit():
    """Pin the interpreter's int_max_str_digits limit at its default for
    one test, so that ``LONG_LITERAL`` exceeds it whatever the interpreter
    was started with."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int_max_str_digits limit")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


def rng_for(name):
    return random.Random(f"skewrs-tests:{name}")


def random_poly(ctx, rng, degree):
    """Random skew polynomial of degree at most `degree` (possibly zero)."""
    return SkewPolynomial(ctx, [ctx.random_element(rng) for _ in range(degree + 1)])


def random_nonzero_poly(ctx, rng, degree):
    while True:
        f = random_poly(ctx, rng, degree)
        if not f.is_zero:
            return f
