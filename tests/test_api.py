import ast
import subprocess
import sys
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


def test_package_imports_only_the_standard_library():
    # The package is pure stdlib: every import names a standard module or,
    # relatively, one of sepzn's own.
    package = Path(sepzn.__file__).parent
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or a.name for a in node.names]
            else:
                continue
            if getattr(node, "level", 0):  # from .arith, or from . import x
                assert all((package / f"{name}.py").exists()
                           for name in names), (path.name, names)
            else:
                roots = {name.split(".")[0] for name in names}
                assert roots <= sys.stdlib_module_names, (path.name, roots)


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


def reached(name):
    """The functions and classes of septest that name calls, directly or
    through other functions and classes of septest, name included, with
    their bodies."""
    tree = ast.parse(Path(septest.__file__).read_text())
    bodies = {node.name: node for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    seen, todo = set(), [name]
    while todo:
        name = todo.pop()
        seen.add(name)
        for node in ast.walk(bodies[name]):
            if (isinstance(node, ast.Name) and node.id in bodies
                    and node.id not in seen):
                todo.append(node.id)
    return {name: bodies[name] for name in seen}


def test_discriminant_shares_no_code_with_the_gcd_route():
    # The determinant route never reaches the gcd route's split Euclid
    # (criterion 8), nor the factorization of n that route may fall back
    # on: no function that discriminant calls, directly or through other
    # functions of septest, names either. Both routes share only the
    # packed-row layer, _Rows and _part.
    seen = reached("discriminant")
    assert {"discriminant", "trace_form", "_det_mod"} <= seen.keys()
    assert not seen.keys() & {"is_separable", "_split_euclid"}
    for name, body in seen.items():
        for node in ast.walk(body):
            assert getattr(node, "id", None) != "factorize", name
            assert getattr(node, "attr", None) not in {"factors",
                                                       "factorize"}, name


def test_gcd_route_shares_no_code_with_the_discriminant():
    # And the other way: is_separable never reaches the trace form or the
    # determinant over Z/n.
    seen = reached("is_separable")
    assert {"is_separable", "_split_euclid"} <= seen.keys()
    assert not seen.keys() & {"discriminant", "trace_form", "_det_mod"}


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
    for name in ("count_range", "_sieve", "_tile", "_walk"):
        assert not names(name) & {"Mode", "mode"}, name


def test_size_tool_splits_every_line():
    # tools/size.py splits each module's non-blank lines into code, comments
    # and docstrings; the parts sum to the module's non-blank lines.
    tool = Path(__file__).resolve().parent.parent / "tools" / "size.py"
    out = subprocess.run([sys.executable, str(tool)], capture_output=True,
                         text=True, check=True).stdout.splitlines()
    assert out[0].split() == ["module", "code", "comment", "docstring",
                              "total"]
    rows = {name: [int(x) for x in rest]
            for name, *rest in (line.split() for line in out[1:])}
    assert rows.pop("__all__") == [len(sepzn.__all__)]
    total = rows.pop("total")
    package = Path(sepzn.__file__).parent
    assert sorted(rows) == sorted(path.stem for path in package.glob("*.py"))
    for name, (code, comment, docstring, lines) in rows.items():
        text = (package / f"{name}.py").read_text()
        assert code + comment + docstring == lines, name
        assert lines == sum(1 for line in text.splitlines() if line.strip())
    assert total == [sum(column) for column in zip(*rows.values())]
