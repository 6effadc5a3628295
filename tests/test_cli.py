import csv
import io
import json

import pytest

from sepzn import cli
from sepzn.arith import Modulus


def run_lines(capsys, argv):
    status = cli.run(argv)
    out = capsys.readouterr().out
    records = [json.loads(line) for line in out.splitlines() if line]
    return status, records


def test_factor(capsys):
    status, recs = run_lines(capsys, ["factor", "-n", "120"])
    assert status == 0
    assert recs == [{"command": "factor", "inputs": {"n": 120},
                     "result": {"type": "factorization",
                                "factors": [[2, 3], [3, 1], [5, 1]]},
                     "provenance": "formula"}]


def test_key_order_is_fixed(capsys):
    status, _ = run_lines(capsys, ["factor", "-n", "6"])
    # re-read raw line to check serialization order
    cli.run(["factor", "-n", "6"])
    line = capsys.readouterr().out.splitlines()[-1]
    assert list(json.loads(line)) == ["command", "inputs", "result", "provenance"]


def test_check_paper_example(capsys):
    status, recs = run_lines(capsys, ["check", "-n", "6", "-f", "3x^2+x+5"])
    assert status == 0
    assert recs[0]["result"] == {"type": "bool", "value": True}


def test_check_coefficient_list_form(capsys):
    status, recs = run_lines(capsys, ["check", "-n", "4", "-f", "1,0,1"])
    assert status == 0
    assert recs[0]["result"]["value"] is False


def test_disc_cubic(capsys):
    # disc(x^3 + 2x^2 + 3x + 4) mod 11, against the closed form
    a, b, c = 2, 3, 4
    expect = (a * a * b * b - 4 * a**3 * c - 4 * b**3
              + 18 * a * b * c - 27 * c * c) % 11
    status, recs = run_lines(capsys, ["disc", "-n", "11", "-f", "x^3+2x^2+3x+4"])
    assert status == 0
    assert recs[0]["result"] == {"type": "residue", "value": expect,
                                 "modulus": 11}


def test_disc_non_monic_is_domain_error(capsys):
    assert cli.run(["disc", "-n", "6", "-f", "2x^2+1"]) == 2


def test_trace_form(capsys):
    status, recs = run_lines(capsys, ["trace-form", "-n", "7", "-f", "x^2+3x+5"])
    assert status == 0
    assert recs[0]["result"] == {
        "type": "matrix", "modulus": 7,
        "entries": [[2, -3 % 7], [-3 % 7, (9 - 10) % 7]]}


def test_count_leq_z120(capsys):
    status, recs = run_lines(capsys,
                             ["count", "--mode", "leq", "-n", "120", "-d", "3"])
    assert status == 0
    result = recs[0]["result"]
    assert result["value"] == 65028096
    assert result["total"] == 120**4
    assert "." not in result["proportion"]  # exact rational, no floats


def test_count_decimal_flagged_approximate(capsys):
    status, recs = run_lines(capsys, ["count", "--mode", "monic", "-n", "11",
                                      "-d", "3", "--decimal", "6"])
    result = recs[0]["result"]
    assert result["proportion"] == "10/11"
    assert result["decimal"] == "0.909090"
    assert result["approximate"] is True


def test_proportion_fifteen_primes(capsys):
    status, recs = run_lines(capsys,
                             ["proportion", "-n", "614889782588491410"])
    assert status == 0
    assert recs[0]["result"]["value"] == "1605264998400/11573306655157"


def test_proportion_decimal_matches_paper_rendering(capsys):
    status, recs = run_lines(capsys, ["proportion", "-n", "614889782588491410",
                                      "--decimal", "15"])
    assert recs[0]["result"]["decimal"] == "0.138704092635850"


def test_enumerate(capsys):
    status, recs = run_lines(capsys, ["enumerate", "--mode", "exact",
                                      "-n", "15", "-d", "2"])
    assert status == 0
    assert recs[0]["result"]["value"] == 1888
    assert recs[0]["provenance"] == "enumeration"


def test_enumerate_crt(capsys):
    status, recs = run_lines(capsys, ["enumerate", "--mode", "leq", "-n", "120",
                                      "-d", "3", "--crt", "--budget", "5000"])
    assert status == 0
    assert recs[0]["result"]["value"] == 65028096


def test_enumerate_budget_exceeded(capsys):
    assert cli.run(["enumerate", "-n", "120", "-d", "3",
                    "--budget", "1000"]) == 2


def test_verify_ok(capsys):
    status, recs = run_lines(capsys, ["verify", "-n", "6", "--d-max", "1"])
    assert status == 0
    assert len(recs) == 6
    assert all(r["result"]["match"] for r in recs)
    assert all(r["provenance"] == "both" for r in recs)


def test_verify_mismatch_exits_3(capsys, monkeypatch):
    from sepzn import oracle
    monkeypatch.setattr(oracle.census, "count_monic_separable",
                        lambda m, d: 999)
    status, recs = run_lines(capsys, ["verify", "-n", "6", "--d-max", "1"])
    assert status == 3
    assert any(r["result"]["match"] is False for r in recs)


def test_table_csv(capsys):
    status = cli.run(["table", "--n-min", "4", "--n-max", "6",
                      "--d-min", "1", "--d-max", "2", "--mode", "leq"])
    out = capsys.readouterr().out
    rows = list(csv.reader(io.StringIO(out)))
    assert status == 0
    assert rows[0] == ["n", "d", "mode", "count", "proportion"]
    assert len(rows) == 7
    by_key = {(r[0], r[1]): r for r in rows[1:]}
    assert by_key[("6", "1")][3] == "24"


def test_table_jsonl(capsys):
    status, recs = run_lines(capsys, ["table", "--n-min", "15", "--n-max", "15",
                                      "--d-min", "2", "--d-max", "2",
                                      "--mode", "exact", "--format", "jsonl"])
    assert status == 0
    assert recs[0]["result"]["value"] == 1888


def test_usage_errors_exit_1(capsys):
    assert cli.run(["count", "-n", "6"]) == 1            # missing -d
    assert cli.run(["no-such-command"]) == 1
    assert cli.run(["check", "-n", "6", "--bogus", "x"]) == 1
    assert cli.run(["check", "-n", "6", "-f", "x^^2"]) == 1  # parse error


def test_usage_error_leaves_parser_reusable(capsys):
    # The parser is built once per process; a failed parse must not change
    # how the next command is read.
    argv = ["count", "--mode", "exact", "-n", "15", "-d", "2"]
    assert cli.run(argv) == 0
    first = capsys.readouterr()
    assert cli.run(["count", "-n", "6", "--mode", "bogus"]) == 1
    assert capsys.readouterr().err.startswith("usage error: ")
    assert cli.run(argv) == 0
    again = capsys.readouterr()
    assert again.out == first.out and again.err == first.err == ""


def test_domain_errors_exit_2(capsys):
    assert cli.run(["factor", "-n", "1"]) == 2
    assert cli.run(["proportion", "-n", "6", "-d", "1"]) == 2


def test_records_round_trip(capsys):
    for argv in (["factor", "-n", "60"],
                 ["count", "--mode", "exact", "-n", "15", "-d", "2"],
                 ["proportion", "-n", "35"]):
        status, recs = run_lines(capsys, argv)
        for rec in recs:
            assert json.loads(json.dumps(rec)) == rec


@pytest.mark.parametrize("argv", [
    ["count", "--mode", "monic", "-n", "6", "-d", "-1"],
    ["count", "--mode", "exact", "-n", "6", "-d", "-1"],
    ["count", "--mode", "leq", "-n", "6", "-d", "-1"],
    ["enumerate", "--mode", "monic", "-n", "6", "-d", "-1"],
    ["enumerate", "-n", "6", "-d", "-1"],
    ["enumerate", "--mode", "exact", "-n", "6", "-d", "-1", "--crt"],
    ["verify", "-n", "6", "--d-max", "-1"],
    ["table", "--n-min", "2", "--n-max", "4", "--d-min", "-1",
     "--d-max", "1"],
])
def test_negative_degree_is_domain_error(capsys, argv):
    assert cli.run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("domain error: ")
    assert "Traceback" not in captured.err


def test_factor_mersenne_61(capsys):
    status, recs = run_lines(capsys, ["factor", "-n", "2305843009213693951"])
    assert status == 0
    assert recs[0]["result"]["factors"] == [[2305843009213693951, 1]]
    assert cli.run(["count", "-n", "2305843009213693951", "-d", "2"]) == 0


@pytest.mark.parametrize("argv, status, prefix", [
    # 2^89 - 1: a prime above the deterministic Miller-Rabin bound.
    (["factor", "-n", "618970019642690137449562111"], 2, "domain error: "),
    (["check", "-n", "6", "-f", "x^99999999999"], 1, "usage error: "),
    (["check", "-n", "6", "-f", "9" * 5000 + "x+1"], 1, "usage error: "),
])
def test_refusals_are_one_line(capsys, argv, status, prefix):
    assert cli.run(argv) == status
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(prefix)
    assert "Traceback" not in captured.err
