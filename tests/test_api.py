import ast
import importlib.util
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


def test_pairs_tool_summarizes_pairs():
    # tools/pairs.py's summary of made-up records, with no benchmark run.
    path = Path(__file__).resolve().parent.parent / "tools" / "pairs.py"
    spec = importlib.util.spec_from_file_location("pairs", path)
    pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pairs)
    end_to_end = [{"name": name, "unit": "s", "better": better, "bound": bound}
                  for name, better, bound in [("wall_s", "lower", 0.25),
                                              ("rate", "higher", 0.1),
                                              ("rss", "lower", 0.1),
                                              ("tail", "lower", 0.25)]]

    def record(wall, rate, rss, tail, failed=0):
        values = {"wall_s": wall, "rate": rate, "rss": rss, "tail": tail}
        return {"correct": not failed, "attempted": 10, "failed": failed,
                "metrics": {name: {"value": value, "unit": "s"}
                            for name, value in values.items()}}

    records = {"parent": [record(1.0, 10, 10, 1), record(2.0, 10, 10, 2),
                          record(3.0, 10, 11, 3), record(4.0, 10, 10, 4),
                          record(5.0, 10, 10, 5)],
               "change": [record(1.0, 8, 10.5, 0.5), record(1.5, 9, 10, 0.6),
                          record(3.5, 9, 10, 0.7),
                          record(5.0, 8, 11, 0.8, failed=2), None]}
    seeds, first = [7, 8, 9, 10, 11], ["parent", "change"] * 2 + ["parent"]
    entry, faults = pairs.summarize(seeds, first, 5, records, end_to_end)
    assert faults == ["change seed 10: correct False, failed 2 of 10",
                      "change seed 11: no result"]
    assert entry["failed"] == {"parent": [0] * 5,
                               "change": [0, 0, 0, 2, None]}
    assert (entry["pairs"], entry["seconds"], entry["first"]) == (5, 5, first)
    # The pair with no change record is left out of every metric.
    wall = entry["metrics"]["wall_s"]
    assert wall["parent"] == [1.0, 2.0, 3.0, 4.0]
    assert wall["change"] == [1.0, 1.5, 3.5, 5.0]
    assert (wall["parent_median"], wall["change_median"]) == (2.5, 2.5)
    assert wall["parent_quartiles"] == [1.75, 3.25]
    assert wall["parent_iqr"] == 1.5
    assert wall["change_wins"] == "1/4"  # the tie at 1.0 counts for neither
    # Equal medians, but an IQR of 60% of the median against a 25% bound.
    assert wall["verdict"] == "unresolved" and wall["change_pct"] == 0
    # Higher is better: 8.5 is more than 10% below 10.
    rate = entry["metrics"]["rate"]
    assert (rate["change_median"], rate["change_wins"]) == (8.5, "0/4")
    assert rate["verdict"] == "BREACH" and rate["parent_iqr"] == 0
    # 10.25 against 10, with an IQR of 2.5% of the median: within 10%.
    rss = entry["metrics"]["rss"]
    assert rss["parent_iqr"] == 0.25 and rss["verdict"] == "within"
    # As wide a spread as wall_s, but every change run beats every parent
    # run.
    tail = entry["metrics"]["tail"]
    assert tail["parent_iqr"] == 1.5 and tail["verdict"] == "within"
    lines = pairs.report(entry, faults, end_to_end)
    assert [line.split()[-2] for line in lines[1:5]] == [
        "25%", "10%", "10%", "25%"]
    assert [line.split()[-3] for line in lines[1:5]] == [
        "unresolved", "BREACH", "within", "within"]
    assert lines[5:] == ["FAULT " + fault for fault in faults]
