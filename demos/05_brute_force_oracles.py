"""Brute-force verification at desk scale.

Two small codes over GF(16) and GF(8) are checked against exhaustive
enumeration: the true minimum distance must equal the designed distance
(the codes are MDS), and the algebraic decoder must return every error of
weight at most t on the zero codeword.  The code is linear and decode(c + e)
is decode(e) shifted by c, so this is nearest-codeword search on every word
within the packing radius, with one decode per error pattern.

Run:  python demos/05_brute_force_oracles.py
"""

from skewrs import FiniteField, build_code, find_normal_element, min_distance_oracle
from skewrs.cli import error_pattern_equivalence

for p, d, modulus, delta in [(2, 4, "a^4 + a + 1", 3),
                             (2, 3, "a^3 + a + 1", 3)]:
    field = FiniteField(p, d, modulus)  # plain Frobenius, order d
    alpha = find_normal_element(field)
    code = build_code(field, alpha, r=0, delta=delta)
    print(f"GF({p**d}), n={code.n}, delta={delta}, dimension={code.dimension}")
    print("  normal element:", field.format(alpha))
    dist = min_distance_oracle(code)
    print(f"  exhaustive minimum distance: {dist} "
          f"({'MDS confirmed' if dist == delta else 'NOT MDS'})")
    mismatches = error_pattern_equivalence(code)
    print(f"  decode vs nearest-codeword search: {mismatches} disagreements")
    assert dist == delta and mismatches == 0
print("all brute-force oracles agree with the algebraic decoder.")
