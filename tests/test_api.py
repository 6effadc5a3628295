import ast
from pathlib import Path

import sepzn
from sepzn import oracle, septest

PUBLIC = [
    "BudgetExceeded", "DomainError", "Mode", "Modulus", "PolyParseError",
    "PolyZn", "VerificationReport",
    "count", "count_leq_recurrence", "count_monic_separable",
    "count_separable_exact", "count_separable_leq",
    "count_separable_leq_primepower", "crt_product_count", "discriminant",
    "enumerate_count", "geometric_sum", "is_separable", "is_separable_monic",
    "parse", "proportion_monic_separable", "totient", "trace_form", "verify",
]


def test_public_names_are_pinned():
    # A name added to or dropped from the package's API shows up here.
    assert sorted(sepzn.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in sepzn.__all__:
        assert getattr(sepzn, name) is not None


def test_budget_refusal_is_a_domain_error():
    # Every exit-2 refusal of the CLI is one exception class.
    assert issubclass(sepzn.BudgetExceeded, sepzn.DomainError)


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


def test_discriminant_shares_no_code_with_the_gcd_route():
    # The determinant route never reaches the gcd route's Euclid over Z/p
    # (criterion 8), nor the factorization of n that route starts from: no
    # function that discriminant calls, directly or through other functions
    # of septest, names either.
    tree = ast.parse(Path(septest.__file__).read_text())
    bodies = {node.name: node for node in tree.body
              if isinstance(node, ast.FunctionDef)}
    seen, todo = set(), ["discriminant"]
    while todo:
        name = todo.pop()
        seen.add(name)
        for node in ast.walk(bodies[name]):
            if (isinstance(node, ast.Name) and node.id in bodies
                    and node.id not in seen):
                todo.append(node.id)
    assert {"discriminant", "trace_form", "_det_mod"} <= seen
    assert not seen & {"_gcd_lists", "_rem_lists", "_separable_coeffs_mod_p"}
    for name in seen:
        for node in ast.walk(bodies[name]):
            assert getattr(node, "id", None) != "factorize", name
            assert getattr(node, "attr", None) not in {"factors",
                                                       "factorize"}, name


def test_walk_takes_no_mode():
    # The walk counts a range of one index of all polynomials; only
    # census.window places a mode's set in it.
    tree = ast.parse(Path(oracle.__file__).read_text())
    bodies = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            bodies[node.name] = node
        elif isinstance(node, ast.ClassDef):
            bodies.update((f"{node.name}.{f.name}", f) for f in node.body
                          if isinstance(f, ast.FunctionDef))

    def names(name):
        return {getattr(node, "id", None) or getattr(node, "arg", None)
                or getattr(node, "attr", None)
                for node in ast.walk(bodies[name])}

    assert {"Mode", "mode"} <= names("enumerate_count")
    for name in ("count_range", "_sieve", "_tile", "_Pool.walk"):
        assert not names(name) & {"Mode", "mode"}, name
