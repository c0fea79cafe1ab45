"""The raw field protocol that all three backends meet (see ``skewrs.fields``)."""
import pathlib
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


# every method that a backend class defines over FieldContext, and
# FiniteField's F_q[z] kernels, with the test that checks it against its
# reference route: FieldContext's own method, the module function, or
# Element arithmetic
OVERRIDE_TESTS = {
    "FiniteField.pow": "test_fields.py::test_untabled_powers_equal_the_tabled_ones",
    "FiniteField.add_scaled": "test_fields.py::test_add_scaled_equals_element_arithmetic",
    "FiniteField.conjugate_table": "test_codes.py::test_conjugate_sums_equal_the_generic_route",
    "FiniteField.conjugate_sums": "test_codes.py::test_conjugate_sums_equal_the_generic_route",
    "FiniteField.poly_product": "test_fields.py::test_log_domain_kernels_equal_the_generic_ones",
    "FiniteField.poly_gcd": "test_fields.py::test_log_domain_kernels_equal_the_generic_ones",
    "FiniteField.poly_quotient": "test_fields.py::test_log_domain_kernels_equal_the_generic_ones",
    "FiniteField.poly_sums": "test_fields.py::test_packed_poly_sums_equal_the_schoolbook_route",
    "RationalFunctions.add_product": "test_fields.py::test_add_product_equals_element_arithmetic",
    "RationalFunctions.kernel_rows":
        "test_fields.py::test_kernel_rows_give_w_times_one_common_factor",
    "RationalFunctions.conjugate_table":
        "test_codes.py::test_conjugate_sums_equal_the_generic_route",
    "RationalFunctions.conjugate_sums":
        "test_codes.py::test_conjugate_sums_equal_the_generic_route",
    "RationalFunctions.conjugate_zeros": "test_fields.py::test_conjugate_zeros_equal_zero_sums",
    "CyclotomicField.add_product": "test_fields.py::test_add_product_equals_element_arithmetic",
    "CyclotomicField.conjugate_table":
        "test_codes.py::test_conjugate_sums_equal_the_generic_route",
    "CyclotomicField.conjugate_sums": "test_codes.py::test_conjugate_sums_equal_the_generic_route",
    "CyclotomicField.conjugate_zeros":
        "test_fields.py::test_cyclotomic_zero_test_equals_the_generic_route",
}
# overrides with no reference route, and why
NO_REFERENCE = {
    "FiniteField.random_nonzero": "a seeded draw, not a value of the field's arithmetic",
}


def test_every_override_has_a_reference_test_or_a_reason():
    backends = [cls for cls in vars(skewrs.fields).values() if isinstance(cls, type)
                and issubclass(cls, FieldContext) and cls is not FieldContext]
    context = {name for name in vars(FieldContext) if not name.startswith("__")}
    overrides = {f"{cls.__name__}.{name}" for cls in backends for name in vars(cls)
                 if name in context or cls is FiniteField and name in FQZ_KERNELS}
    assert overrides == OVERRIDE_TESTS.keys() | NO_REFERENCE.keys()
    here = pathlib.Path(__file__).parent
    for name, test in OVERRIDE_TESTS.items():
        file, function = test.split("::")
        assert re.search(rf"^def {function}\(", (here / file).read_text(), re.M), (name, test)
