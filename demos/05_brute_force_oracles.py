"""Brute-force verification at desk scale.

Two small codes over GF(16) and GF(8) are checked exhaustively.  The
minimum distance comes from the parity-check matrix H, whose columns are
the right evaluations of x^j at the delta - 1 beta-roots: every delta - 1
columns of H must be independent (the codes are MDS), and the generator
must vanish at those roots, so that the code is exactly ker H.  Then the
algebraic decoder must return every error of weight at most t on the zero
codeword.  The code is linear, so decode(c + e) is decode(e) shifted by c
and decode(lambda * e) is decode(e) scaled by lambda: one decode per error
pattern up to scale is nearest-codeword search on every word within the
packing radius.

The minors need no enumeration, so they also check the F_4(z) code of the
second worked example, an infinite field.

Run:  python demos/05_brute_force_oracles.py
"""

from skewrs import EXAMPLE_CONFIGS, FiniteField, build_code, code_from_config, find_normal_element
from skewrs.cli import error_pattern_equivalence, generator_check, parity_check_distance


def check_distance(code):
    dist = parity_check_distance(code, budget=1 << 20)
    mds = dist == code.delta and generator_check(code)
    print(f"  minimum distance by parity-check minors: {dist} "
          f"({'MDS confirmed' if mds else 'NOT MDS'})")
    assert mds


for p, d, modulus, delta in [(2, 4, "a^4 + a + 1", 3),
                             (2, 3, "a^3 + a + 1", 3)]:
    field = FiniteField(p, d, modulus)  # plain Frobenius, order d
    alpha = find_normal_element(field)
    code = build_code(field, alpha, r=0, delta=delta)
    print(f"GF({p**d}), n={code.n}, delta={delta}, dimension={code.dimension}")
    print("  normal element:", field.format(alpha))
    check_distance(code)
    mismatches = error_pattern_equivalence(code)
    print(f"  decode vs nearest-codeword search: {mismatches} disagreements")
    assert mismatches == 0

ctx, code = code_from_config(EXAMPLE_CONFIGS[2])
print(f"F_4(z), n={code.n}, delta={code.delta}, dimension={code.dimension}")
check_distance(code)
print("all brute-force oracles agree with the algebraic decoder.")
