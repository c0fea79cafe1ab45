import itertools

import pytest

from skewrs import Matrix, parse_element, solve_row_system

from conftest import rng_for
from oracles import identity, left_kernel, zeros


def random_matrix(ctx, rng, nrows, ncols):
    return Matrix(ctx, [[ctx.random_element(rng) for _ in range(ncols)]
                        for _ in range(nrows)])


def parse_matrix(ctx, cells):
    return Matrix(ctx, [[parse_element(ctx, c) for c in row] for row in cells])


def test_rref_of_identity(gf4096):
    I = identity(gf4096, 4)
    assert I.rref() == I
    assert I.rcef() == I
    assert I.rank() == 4


def test_reference_rcef(gf4096):
    st = parse_matrix(gf4096, [["a^3170", "a^2390"],
                               ["a^2645", "a^428"],
                               ["a^107", "a^248"]])
    expected = parse_matrix(gf4096, [["1", "0"], ["0", "1"], ["a^1950", "a^3315"]])
    assert st.rcef() == expected
    assert st.rank() == 2


def test_reference_rank_one_matrix(gf4096):
    st = parse_matrix(gf4096, [["a^59", "a^65"],
                               ["a^1040", "a^1046"],
                               ["a^2309", "a^2315"]])
    assert st.rank() == 1
    assert st.rcef() == parse_matrix(
        gf4096, [["1", "0"], ["a^981", "0"], ["a^2250", "0"]])


@pytest.mark.parametrize("name", ["gf4096", "rational", "cyclotomic"])
def test_echelon_idempotence_and_unit_pivots(all_contexts, name):
    ctx = all_contexts[name]
    rng = rng_for(f"echelon-{name}")
    rounds = 30 if name != "rational" else 10
    for _ in range(rounds):
        m = random_matrix(ctx, rng, rng.randrange(1, 5), rng.randrange(1, 5))
        r = m.rref()
        assert r.rref() == r
        c = m.rcef()
        assert c.rcef() == c
        assert m.rank() == m.transpose().rank()
        for row in r.rows:
            nonzero = [v for v in row if v]
            if nonzero:
                assert nonzero[0] == ctx.one


@pytest.mark.parametrize("name", ["gf4096", "cyclotomic"])
def test_rank_of_product_bound(all_contexts, name):
    ctx = all_contexts[name]
    rng = rng_for(f"rankprod-{name}")
    for _ in range(30):
        a = random_matrix(ctx, rng, rng.randrange(1, 4), rng.randrange(1, 4))
        b = random_matrix(ctx, rng, a.ncols, rng.randrange(1, 4))
        assert (a * b).rank() <= min(a.rank(), b.rank())


def test_solve_against_identity(gf4096):
    rng = rng_for("solveid")
    b = [gf4096.random_element(rng) for _ in range(3)]
    assert solve_row_system(identity(gf4096, 3), b) == b


def test_reference_error_value_system(gf4096):
    m = parse_matrix(gf4096, [["a", "a^1024"], ["a^64", "a^16"]])
    rhs = [parse_element(gf4096, "a^3170"), parse_element(gf4096, "a^2645")]
    x = solve_row_system(m, rhs)
    assert x == [parse_element(gf4096, "a^2"), parse_element(gf4096, "a^3")]


@pytest.mark.parametrize("name", ["gf4096", "rational", "cyclotomic"])
def test_solve_round_trip(all_contexts, name):
    ctx = all_contexts[name]
    rng = rng_for(f"solve-{name}")
    rounds = 500 if name == "gf4096" else 50
    for _ in range(rounds):
        n = rng.randrange(1, 4)
        while True:
            a = random_matrix(ctx, rng, n, n)
            if a.rank() == n:
                break
        x = [ctx.random_element(rng) for _ in range(n)]
        b = [sum((xi * a.rows[i][j] for i, xi in enumerate(x) if xi), ctx.zero)
             for j in range(n)]
        assert solve_row_system(a, b) == x


def test_singular_system_rejected(gf4096):
    one = gf4096.one
    m = Matrix(gf4096, [[one, one], [one, one]])
    with pytest.raises(ValueError):
        solve_row_system(m, [one, one])


def test_rank_of_zero_matrix(gf4096):
    assert zeros(gf4096, 3, 5).rank() == 0


@pytest.mark.parametrize("name", ["gf4096", "rational", "cyclotomic"])
def test_conjugate_submatrices_have_full_rank(all_contexts, all_codes, name):
    # any t distinct conjugate columns of a normal element are independent
    ctx = all_contexts[name]
    alpha = all_codes[name].alpha
    n = ctx.order
    conj = [ctx.sigma(alpha, k) for k in range(2 * n)]
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            m = Matrix(ctx, [[conj[k + i] for i in range(size)] for k in subset])
            assert m.rank() == size


def test_left_kernel_spans_annihilator(gf4096):
    rng = rng_for("kernel")
    for _ in range(30):
        a = random_matrix(gf4096, rng, 4, rng.randrange(1, 4))
        basis = left_kernel(a)
        assert len(basis) == 4 - a.rank()
        zero = [gf4096.zero] * a.ncols
        for v in basis:
            prod = [sum((vi * a.rows[i][j] for i, vi in enumerate(v) if vi),
                        gf4096.zero) for j in range(a.ncols)]
            assert prod == zero
