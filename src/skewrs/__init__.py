"""Skew Reed-Solomon codes over exact fields, with PGZ decoding.

The package builds maximum-distance-separable codes that are left ideals
of L[x;sigma]/(x^n - 1) for a field L carrying an automorphism sigma of
order n, encodes messages by skew multiplication with the generator, and
decodes through syndrome linear algebra.  Three field backends are
provided: GF(p^d) with a Frobenius power, F_q(z) with a Moebius
substitution, and prime-order cyclotomic fields.  Everything is exact;
there are no tolerances anywhere.
"""

from .fields import (CyclotomicField, Element, FieldError, FiniteField,
                     RationalFunctions)
from .linalg import Matrix, solve_row_system
from .parsing import ParseError, parse_element, parse_poly
from .skewpoly import SkewPolynomial, gcrd, lclm, lclm_many, left_divmod
from .codes import (CodeError, ConfigError, SkewRSCode, build_code,
                    code_from_config, codewords, encode, evaluate,
                    find_normal_element, is_normal, min_distance_oracle)
from .pgz import (BRANCH_ALL_ZERO, BRANCH_DIRECT, BRANCH_ECHELON,
                  DecodeReport, build_syndrome_matrix, decode, error_values,
                  extract_rho, locate_positions, syndromes)
from .worked_examples import EXAMPLE_CONFIGS, run_example

__version__ = "0.1.0"

__all__ = [
    "FiniteField", "RationalFunctions", "CyclotomicField",
    "Element", "FieldError",
    "SkewPolynomial", "left_divmod", "gcrd", "lclm", "lclm_many",
    "Matrix", "solve_row_system",
    "parse_element", "parse_poly", "ParseError",
    "SkewRSCode", "build_code", "encode", "evaluate", "is_normal",
    "find_normal_element",
    "min_distance_oracle", "codewords",
    "code_from_config", "CodeError", "ConfigError",
    "DecodeReport", "decode", "syndromes", "build_syndrome_matrix",
    "extract_rho", "locate_positions", "error_values",
    "BRANCH_ALL_ZERO", "BRANCH_DIRECT", "BRANCH_ECHELON",
    "EXAMPLE_CONFIGS", "run_example",
]
