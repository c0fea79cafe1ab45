"""A skew code over the 7th cyclotomic field Q(chi) with sigma(chi) =
chi^3, an automorphism of order 6.  All arithmetic is exact rational
arithmetic on coordinates over the power basis of chi.

Run:  python demos/03_cyclotomic_code.py
"""

from skewrs import (CyclotomicField, SkewPolynomial, build_code, decode,
                    encode, parse_poly)

field = CyclotomicField(7, 3)
chi = field.generator
print("field:", field)
print("beta = alpha^(-1) sigma(alpha) =", chi.inverse() * field.sigma(chi))

code = build_code(field, chi, r=0, delta=5)
print("\ncode:", code)
print("monic generator g =", code.g)
print("2*g (integral form) =", SkewPolynomial(field, (field.from_int(2),)) * code.g)

message = parse_poly(field, "chi^2 + 3x")
codeword = encode(code, message)
error = parse_poly(field, "chi*x^2 - 2x^5")
received = (codeword + error).vector(code.n)
print("\nmessage =", message)
print("injected error =", error)

report = decode(code, received)
print("\ndecode report:")
print(report.to_text(field))
assert report.ok and report.message == message
assert SkewPolynomial(field, report.error) == error
print("both errors located and valued exactly over Q(chi).")
