"""The raw field protocol that all three backends meet (see ``skewrs.fields``)."""
import re

import skewrs.fields
from skewrs.fields import CyclotomicField, FieldContext, FiniteField, RationalFunctions

PROTOCOL = {"add", "neg", "mul", "inv", "pow", "sigma_raw", "add_product", "add_scaled",
            "kernel_rows", "conjugate_table", "conjugate_sums", "conjugate_zeros"}
# F_q[z]'s kernels: only F_q(z) calls them, on its base, which is a FiniteField
FQZ_KERNELS = {"poly_product", "poly_gcd", "poly_quotient", "poly_sums"}
# FieldContext's public methods: the protocol's generic versions it has, and
# the element helpers
CONTEXT_METHODS = {"pow", "add_product", "add_scaled", "kernel_rows", "conjugate_table",
                   "conjugate_sums", "conjugate_zeros", "element", "sigma", "random_nonzero"}


def test_the_protocol_has_twelve_names_and_the_fqz_kernels_are_finite_fields():
    base = FiniteField(2, 2, "a^2 + a + 1", frobenius_power=0)
    contexts = [base, RationalFunctions(base, ("1", "a", "1", "a^2")), CyclotomicField(7, 3)]
    for name in PROTOCOL:
        assert all(callable(getattr(ctx, name)) for ctx in contexts), name
    # the module docstring's protocol list, its lines indented by four, names
    # exactly these
    listed = re.findall(r"^ {4}(\S.*)$", skewrs.fields.__doc__, re.M)
    assert set(re.findall(r"(\w+)\(", " ".join(listed))) == PROTOCOL
    assert FQZ_KERNELS <= set(vars(FiniteField))
    for cls in (FieldContext, RationalFunctions, CyclotomicField):
        assert not [name for name in FQZ_KERNELS if hasattr(cls, name)], cls
    public = {name for name, value in vars(FieldContext).items()
              if callable(value) and not name.startswith("_")}
    assert public == CONTEXT_METHODS
