import sepzn

PUBLIC = [
    "BudgetExceeded", "CountResult", "DomainError", "Mode", "Modulus",
    "PolyParseError", "PolyZn", "VerificationReport",
    "count", "count_leq_recurrence", "count_monic_separable",
    "count_monic_separable_primepower", "count_separable_exact",
    "count_separable_leq", "count_separable_leq_primepower",
    "crt_product_count", "discriminant", "enumerate_count", "factorize",
    "format_poly", "geometric_sum", "is_separable", "is_separable_monic",
    "parse", "proportion_monic_separable", "totient", "trace_form", "verify",
]


def test_public_names_are_pinned():
    # A name added to or dropped from the package's API shows up here.
    assert sorted(sepzn.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in sepzn.__all__:
        assert getattr(sepzn, name) is not None
