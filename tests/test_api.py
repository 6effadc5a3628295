import ast
from pathlib import Path

import sepzn
from sepzn import oracle

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


def test_oracle_shares_no_code_with_septest():
    # The oracle's sieve, the trace-form determinant and the gcd route are
    # three routes to separability that share no code (criterion 8).
    tree = ast.parse(Path(oracle.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        assert not any("septest" in name for name in names), names
