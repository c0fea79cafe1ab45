"""Metamorphic relations of decode: a field map that commutes with decode,
checked on whole reports, so that no oracle is needed."""
import pytest

from skewrs import SkewPolynomial, build_code, decode, encode

from conftest import random_poly, rng_for


def _sigma_of(ctx, value):
    """sigma applied to each coefficient of a list or a SkewPolynomial."""
    if value is None:
        return None
    if isinstance(value, SkewPolynomial):
        return SkewPolynomial(ctx, _sigma_of(ctx, value.coeffs))
    return [ctx.sigma(c) for c in value]


@pytest.mark.parametrize("name", ["gf4096", "rational", "cyclotomic"])
def test_a_sigma_shift_commutes_with_decode(all_contexts, name):
    # sigma on each coefficient is an automorphism of L[x; sigma], and it
    # takes code(alpha, r)'s beta-roots sigma^(r+i)(beta) to those of
    # code(alpha, r + 1): decoding sigma(y) under code(alpha, r + 1) gives
    # sigma of y's report under code(alpha, r).  Six words of each weight
    # 0 .. t + 1, so the direct and echelon branches and failures all occur
    ctx = all_contexts[name]
    rng = rng_for(f"sigma-shift-{name}")
    for r in (0, 1, 4):
        code, shifted = (build_code(ctx, ctx.generator, s, 5) for s in (r, r + 1))
        for weight in range(code.t + 2):
            for _ in range(6):
                y = encode(code, random_poly(ctx, rng, code.dimension - 1)).vector(code.n)
                for k in rng.sample(range(code.n), weight):
                    y[k] = y[k] + ctx.random_nonzero(rng)
                want, got = decode(code, y), decode(shifted, _sigma_of(ctx, y))
                for key in ("failure", "mu", "branch", "positions"):
                    assert getattr(got, key) == getattr(want, key), (r, key)
                for key in ("syndromes", "rho", "values", "error", "codeword", "message"):
                    assert getattr(got, key) == _sigma_of(ctx, getattr(want, key)), (r, key)
