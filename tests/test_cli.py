import contextlib
import csv
import hashlib
import importlib.util
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sepzn import arith, census, cli, oracle
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


# The keys of each one-record command's inputs, in order.
INPUTS = {"factor -n 6": ["n"],
          "check -n 6 -f 3x^2+x+5": ["n", "polynomial"],
          "disc -n 11 -f x^3+2x^2+3x+4": ["n", "polynomial"],
          "trace-form -n 7 -f x^2+3x+5": ["n", "polynomial"],
          "count -n 6 -d 2": ["n", "d", "mode"],
          "proportion -n 6": ["n", "d"],
          "enumerate -n 6 -d 2": ["n", "d", "mode", "crt"]}


@pytest.mark.parametrize("command", INPUTS)
def test_key_order_is_fixed(capsys, command):
    # Read the raw line: json.loads keeps the order of the keys it reads.
    assert cli.run(command.split()) == 0
    record = json.loads(capsys.readouterr().out)
    assert list(record) == ["command", "inputs", "result", "provenance"]
    assert list(record["inputs"]) == INPUTS[command]


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


def test_enumerate_crt_budget_is_exact(capsys):
    # Monic degree 2 over Z/2 and Z/3 walks the windows [4, 8) and [9, 18):
    # 4 + 9 = 13 tests, where the sum of the windows' ends would be 39.
    argv = ["enumerate", "--crt", "--mode", "monic", "-n", "6", "-d", "2"]
    status, recs = run_lines(capsys, argv + ["--budget", "13"])
    assert status == 0 and recs[0]["result"]["value"] == 12
    assert cli.run(argv + ["--budget", "12"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("domain error: enumeration needs 13 tests, "
                            "budget is 12\n")


def test_enumerate_refuses_tables_beyond_memory(capsys, monkeypatch):
    # 1048578 = 2 * 3 * 174763: degree <= 1 needs a table of 174763^2 bytes,
    # above oracle.MAX_TABLE_BYTES however far the budget is raised.  The
    # refusal comes before any table is sieved.
    def sieve(*args):
        raise AssertionError("a table was sieved")

    monkeypatch.setattr(oracle, "_sieve", sieve)
    assert cli.run(["enumerate", "--mode", "exact", "-n", "1048578", "-d",
                    "1", "--budget", "2000000000000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("domain error: enumeration needs tables of "
                            "30542106182 bytes, more than the 1073741824 it "
                            "holds\n")


def test_pooled_enumerate_refuses_tables_before_the_pool(capsys,
                                                        monkeypatch):
    # The same refusal at --workers 2, decided in this process: no pool is
    # started for a query whose workers would each refuse.
    def pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(oracle, "ProcessPoolExecutor", pool)
    monkeypatch.setattr(oracle.os, "cpu_count", lambda: 2)
    assert cli.run(["enumerate", "--mode", "exact", "-n", "1048578", "-d",
                    "1", "--budget", "2000000000000", "--workers", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("domain error: enumeration needs tables of "
                            "30542106182 bytes, more than the 1073741824 it "
                            "holds\n")


def test_verify_ok(capsys):
    status, recs = run_lines(capsys, ["verify", "-n", "6", "--d-max", "1"])
    assert status == 0
    assert len(recs) == 6
    assert all(r["result"]["match"] for r in recs)
    assert all(r["provenance"] == "both" for r in recs)


def test_verify_mismatch_exits_3(capsys, monkeypatch):
    # A wrong monic formula, at the census call verify takes per query.
    count = oracle.census.count
    monkeypatch.setattr(oracle.census, "count", lambda m, d, mode: 999
                        if mode is census.Mode.MONIC else count(m, d, mode))
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


@pytest.mark.parametrize("command, usage", [
    # A sub-command's own error: that sub-command's usage.
    ("count -n 6",
     "usage: sepzn count [-h] [--mode {monic,leq,exact}] -n N -d D"),
    ("enumerate -n 6 -d 2 --workers x",
     "usage: sepzn enumerate [-h] [--mode {monic,leq,exact}] -n N -d D"),
    # An unknown sub-command or argument: the top-level usage.
    ("no-such-command", "usage: sepzn [-h]"),
    ("check -n 6 -f x --bogus y", "usage: sepzn [-h]"),
])
def test_usage_error_shows_the_failing_parser(capsys, command, usage):
    assert cli.run(command.split()) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    message, first, *_ = captured.err.splitlines()
    assert message.startswith("usage error: ")
    assert first == usage


# One argv per sub-command, then argvs at the edges of argparse's grammar.
PARSE_CORPUS = [
    "factor -n 60",
    "check -n 6 -f x^2+1",
    "disc -n 1009 -f x^3+2x+1",
    "trace-form -n 7 -f 1,0,1",
    "count --mode exact -n 15 -d 2 --decimal 3",
    "proportion -n 35",
    "enumerate -n 6 -d 2 --crt --budget 100",
    "verify -n 6 --d-max 2 --workers 1",
    "table --n-min 2 --n-max 5 --d-min 0 --d-max 2 --format jsonl",
    "",
    "-h",
    "disc -h",
    "-- disc -n 5 -f x",
    "disc -n 5 -- -f x",
    "count --mode=monic -n 6 -d 2",
    "disc -n5 -fx",
    "check -n 6 -fx^2+1",
    "count --mo monic -n 6 -d 2",
    "table --n-min 2 --n-max 3 --d-min 0 --d-max 1 --form jsonl",
    "enumerate -n 6 -d 1 --work 1",
    "count -n 6 -n 10 -d 2 -d 3",
    "table --n-min 2 --n-max 3 --d 1",
    "factor -n 6 --bogus",
    "check -n 6 -f x extra",
    "no-such-command -n 6",
    "-n 6 factor",
    "count -n 6",
    "enumerate -n 6 -d 2 --workers x",
]


@pytest.mark.parametrize("command", PARSE_CORPUS)
def test_one_parse_reads_as_parse_args(capsys, monkeypatch, command):
    # A known sub-command is read by its own parser alone: the namespace,
    # or the exit status, stdout and first two stderr lines of a failure,
    # are those of the top-level parser's parse_args.
    argv, parser = command.split(), cli.build_parser()
    try:
        expected = vars(parser.parse_args(argv))
    except (cli._UsageError, SystemExit):
        expected = None
    capsys.readouterr()
    if expected is not None:
        assert vars(cli._parse(argv)) == expected
        return
    status, got = cli.run(argv), capsys.readouterr()
    monkeypatch.setattr(cli, "_parse", parser.parse_args)
    assert cli.run(argv) == status
    want = capsys.readouterr()
    assert got.out == want.out
    assert got.err.splitlines()[:2] == want.err.splitlines()[:2]


N = (["-n"], "n", int, None, True, None)
D = (["-d"], "d", int, None, True, None)
MODE = (["--mode"], "mode", None, "leq", False, ["monic", "leq", "exact"])
DECIMAL = (["--decimal"], "decimal", int, None, False, None)
BUDGET = (["--budget"], "budget", int, 10**8, False, None)
WORKERS = (["--workers"], "workers", int, 1, False, None)
D_MAX = (["--d-max"], "d_max", int, None, True, None)
POLY = (["-f"], "poly", None, None, True, None)
OPTIONS = {
    "factor": [N],
    "check": [N, POLY],
    "disc": [N, POLY],
    "trace-form": [N, POLY],
    "count": [MODE, N, D, DECIMAL],
    "proportion": [N, (["-d"], "d", int, 2, False, None), DECIMAL],
    "enumerate": [MODE, N, D, BUDGET, WORKERS,
                  (["--crt"], "crt", None, False, False, None)],
    "verify": [N, D_MAX, BUDGET, WORKERS],
    "table": [(["--n-min"], "n_min", int, None, True, None),
              (["--n-max"], "n_max", int, None, True, None),
              (["--d-min"], "d_min", int, None, True, None), D_MAX, MODE,
              (["--format"], "format", None, "csv", False, ["csv", "jsonl"])],
}


@pytest.mark.parametrize("name", OPTIONS)
def test_options_are_pinned(name):
    # (strings, dest, type, default, required, choices) of every option of
    # the sub-command, in order, but -h.
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    assert list(sub.choices) == list(OPTIONS)
    assert [(a.option_strings, a.dest, a.type, a.default, a.required,
             a.choices) for a in sub.choices[name]._actions
            if a.dest != "help"] == OPTIONS[name]


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
    # Degree 1025 as a comma list.
    (["check", "-n", "7", "-f", ",".join(["1"] * 1026)], 1, "usage error: "),
    (["trace-form", "-n", "7", "-f", ",".join(["1"] * 1026)], 1,
     "usage error: "),
    # The commands that need the primes of 2^89 - 1: check only where n is
    # too wide for the degree without them.
    (["check", "-n", str((2**89 - 1) * 1009**100), "-f", "x^1024+x+1"], 2,
     "domain error: "),
    (["count", "-n", "618970019642690137449562111", "-d", "2"], 2,
     "domain error: "),
])
def test_refusals_are_one_line(capsys, argv, status, prefix):
    assert cli.run(argv) == status
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(prefix)
    assert "Traceback" not in captured.err


def refuse_to_factor(n):
    raise AssertionError(f"factorize({n})")


@pytest.mark.parametrize("n", [2**89 - 1, 120])
@pytest.mark.parametrize("factorize_raises", [False, True])
def test_discriminant_route_never_factors(capsys, monkeypatch, n,
                                          factorize_raises):
    # disc and trace-form need no primes of n: they answer modulo 2^89 - 1,
    # which factorize refuses, and with factorize raising.
    if factorize_raises:
        monkeypatch.setattr(arith, "factorize", refuse_to_factor)
    status, recs = run_lines(capsys, ["disc", "-n", str(n), "-f", "x^2+x+1"])
    assert status == 0
    # -3 is 618970019642690137449562108 modulo 2^89 - 1.
    assert recs[0]["result"]["value"] == -3 % n
    status, recs = run_lines(capsys, ["trace-form", "-n", str(n), "-f",
                                      "x^2+x+1"])
    assert status == 0
    assert recs[0]["result"]["entries"] == [[2, n - 1], [n - 1, n - 1]]


def catalogue_checks(workload):
    """The check commands of a perfbench workload's whole catalogue."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # where its dataclass looks itself up
    spec.loader.exec_module(workloads)
    return [list(argv) for slot in workloads.catalogue(workload)
            for group in slot for argv in group.argvs if argv[0] == "check"]


def test_check_route_needs_no_rho_nor_miller_rabin(capsys, monkeypatch):
    # check takes out the primes below 1000 by one gcd and splits the rest
    # of n only where a leading coefficient asks: the 60 check candidates
    # of factor_large_n (n = c p q) answer with rho and Miller-Rabin
    # raising.
    def refuse(*args):
        raise AssertionError(f"factoring {args}")

    monkeypatch.setattr(arith, "_rho_divisor", refuse)
    monkeypatch.setattr(arith, "_is_certified_prime", refuse)
    checks = catalogue_checks("factor_large_n")
    assert len(checks) == 60
    for argv in checks:
        status, recs = run_lines(capsys, argv)
        assert status == 0 and recs[0]["result"]["type"] == "bool"


@pytest.mark.parametrize("n", [
    # 2^89 - 1, a prime that factorize cannot certify, and a 278-bit n
    # whose factor (2^89 - 1)^3 rho does not split within its cap.
    2**89 - 1, (2**89 - 1)**3 * 1009,
], ids=["2^89-1", "(2^89-1)^3*1009"])
def test_check_answers_where_factoring_refuses(capsys, monkeypatch, n):
    # disc(x^2+x+1) = -3, a unit modulo n.
    monkeypatch.setattr(arith, "factorize", refuse_to_factor)
    status, recs = run_lines(capsys, ["check", "-n", str(n), "-f",
                                      "x^2+x+1"])
    assert status == 0 and recs[0]["result"]["value"] is True
    status, recs = run_lines(capsys, ["check", "-n", str(n), "-f",
                                      "x^1024+x^2+1"])
    assert status == 0 and recs[0]["result"]["type"] == "bool"


def test_disc_bound_at_its_edge(capsys):
    # 50^3 (2672 + 32 + 2672^2 // 768) = 1.5e9 = MAX_DET_WORK exactly, so
    # modulo the 2672-bit 2^2671 + 1 degree 50 is the most disc takes.
    assert cli.run(["disc", "-n", str(2**2671 + 1), "-f", "x^51+1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("domain error: disc takes degree <= 50 modulo a "
                            "2672-bit n, got degree 51\n")


def sepzn_process(*argv, **kwargs):
    """`python -m sepzn.cli argv` as a process on this checkout's src/."""
    src = str(Path(cli.__file__).parents[1])
    return subprocess.Popen([sys.executable, "-m", "sepzn.cli", *argv],
                            env={**os.environ, "PYTHONPATH": src}, **kwargs)


@pytest.mark.parametrize("argv", [
    # About 14,000 rows and 1,800 records: far more than a pipe holds.
    ["table", "--n-min", "2", "--n-max", "2000", "--d-min", "0",
     "--d-max", "6"],
    ["verify", "-n", "2", "--d-max", "600", "--budget", "1000"],
])
def test_closed_pipe_ends_silently(argv):
    # sepzn ... | head -2: the reader leaves while the command still writes.
    proc = sepzn_process(*argv, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE)
    head = subprocess.Popen(["head", "-2"], stdin=proc.stdout,
                            stdout=subprocess.PIPE)
    proc.stdout.close()
    out = head.communicate(timeout=60)[0]
    err = proc.communicate(timeout=60)[1]
    assert proc.returncode == 1
    assert out.count(b"\n") == 2
    assert err == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_failed_write_is_one_line():
    with open("/dev/full", "wb") as full:
        proc = sepzn_process("factor", "-n", "6", stdout=full,
                             stderr=subprocess.PIPE)
        err = proc.communicate(timeout=60)[1].decode()
    assert proc.returncode == 1
    assert err.startswith("output error: ") and err.count("\n") == 1


def test_import_loads_no_pool_dataclasses_or_fractions():
    # A fresh interpreter, compared with the modules it holds at start
    # (site may preload some).
    script = ("import sys\n"
              "before = set(sys.modules)\n"
              "import sepzn.cli\n"
              "print(' '.join(sorted(set(sys.modules) - before)))\n")
    src = str(Path(cli.__file__).parents[1])
    loaded = subprocess.run([sys.executable, "-c", script],
                            capture_output=True, text=True, check=True,
                            env={**os.environ, "PYTHONPATH": src}).stdout
    loaded = loaded.split()
    assert "sepzn.oracle" in loaded
    on_demand = {"concurrent", "multiprocessing", "dataclasses", "fractions"}
    assert not [name for name in loaded if name.split(".")[0] in on_demand]


@pytest.mark.parametrize("workers", ["1", "2"])
def test_interrupt_is_one_line(workers):
    # Ctrl-C in a shell: SIGINT to the process group (the pool's workers
    # too) a second into a walk of 2^25 tuples, which takes several.
    proc = sepzn_process("enumerate", "-n", "2", "-d", "24", "--budget",
                         "1000000000", "--workers", workers,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         start_new_session=True)
    time.sleep(1)
    os.killpg(proc.pid, signal.SIGINT)
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == -signal.SIGINT
    assert err == b"interrupted\n"
    assert out == b""


def process_stdout(*argv):
    proc = sepzn_process(*argv, stdout=subprocess.PIPE)
    out = proc.communicate(timeout=60)[0]
    assert proc.returncode == 0
    return out


def test_pool_in_a_fresh_process():
    # The pool class is imported on the first start of a pool.
    argv = ["enumerate", "--mode", "leq", "-n", "5", "-d", "4"]
    out = process_stdout(*argv, "--workers", "2")
    assert out == process_stdout(*argv, "--workers", "1")
    assert json.loads(out)["result"]["value"] == 2504


def test_proportion_in_a_fresh_process():
    # Fraction is imported on the first proportion.
    assert process_stdout("proportion", "-n", "12", "-d", "3",
                          "--decimal", "5") == (
        b'{"command": "proportion", "inputs": {"n": 12, "d": 3}, "result": '
        b'{"type": "rational", "value": "1/3", "decimal": "0.33333", '
        b'"approximate": true}, "provenance": "formula"}\n')


def test_coefficient_list_up_to_degree_1024(capsys):
    status, recs = run_lines(capsys, ["check", "-n", "7", "-f",
                                      ",".join(["1"] * 1025)])
    assert status == 0
    assert recs[0]["inputs"]["polynomial"].startswith("x^1024+x^1023+")


def test_long_coefficient_list_refused_at_once(capsys):
    # About as many entries as one argv string holds.
    start = time.perf_counter()
    assert cli.run(["trace-form", "-n", "7", "-f",
                    ",".join(["1"] * 65000)]) == 1
    assert time.perf_counter() - start < 0.5
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1


@pytest.mark.parametrize("digits, degree, most", [
    (16, 1024, None),   # 1024^2 * 16 = 2^24 exactly: accepted
    (17, 1024, 993),
    (4096, 64, None),   # 64^2 * 4096 = 2^24
    (4096, 65, 64),
    (4300, 63, 62),
])
def test_trace_form_output_bound(capsys, digits, degree, most):
    # x^N - 1 modulo a `digits`-digit n: the power sums of its roots are N
    # at multiples of N and 0 elsewhere, so an accepted matrix is checked
    # entry by entry.
    n = 10 ** (digits - 1)
    argv = ["trace-form", "-n", str(n), "-f", f"x^{degree}+{n - 1}"]
    if most is None:
        status, recs = run_lines(capsys, argv)
        assert status == 0
        entries = recs[0]["result"]["entries"]
        assert entries == [[degree if (i + j) % degree == 0 else 0
                            for j in range(degree)] for i in range(degree)]
        return
    assert cli.run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"domain error: trace-form takes degree <= {most} "
                            f"modulo a {digits}-digit n, got degree {degree}\n")


@pytest.mark.parametrize("n, primes, most", [(2310, 5, 915),
                                              (223092870, 9, 682)])
def test_check_bound(capsys, monkeypatch, n, primes, most):
    # Where m is too wide for the direct route, as it is for n with its
    # largest prime traded for 1009^60, check factors n and takes degree N
    # while N^2 times the number of distinct primes of n is within
    # septest.MAX_GCD_WORK (2^22). n itself takes the direct route past
    # that degree, with factorize raising.
    wide = n // arith.factorize(n)[-1][0] * 1009**60
    status, recs = run_lines(capsys, ["check", "-n", str(wide), "-f",
                                      f"x^{most}+x+1"])
    assert status == 0 and recs[0]["result"]["type"] == "bool"
    assert cli.run(["check", "-n", str(wide), "-f",
                    f"x^{most + 1}+x+1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"domain error: check takes degree <= {most} "
                            f"modulo an n with {primes} distinct primes, got "
                            f"degree {most + 1}\n")
    monkeypatch.setattr(arith, "factorize", refuse_to_factor)
    status, recs = run_lines(capsys, ["check", "-n", str(n), "-f",
                                      f"x^{most + 1}+x+1"])
    assert status == 0 and recs[0]["result"]["type"] == "bool"


def test_check_bound_is_inclusive(capsys):
    # 210 has 4 distinct primes and 1024^2 * 4 = 2^22 = MAX_GCD_WORK exactly,
    # so degree 1024, the most the parser takes, is answered: modulo 210 by
    # the direct route, and modulo 30 * 1009^60, too wide for it, through
    # factoring.
    for n in (210, 30 * 1009**60):
        status, recs = run_lines(capsys, ["check", "-n", str(n),
                                          "-f", "x^1024+x+1"])
        assert status == 0 and recs[0]["result"]["type"] == "bool"


@pytest.mark.parametrize("argv", [
    ["count", "-n", "6", "-d", "6000"],
    ["enumerate", "-n", "6", "-d", "6000"],
    ["verify", "-n", "6", "--d-max", "6000", "--budget", "10"],
    ["proportion", "-n", "6", "-d", "2", "--decimal", "5000"],
    ["table", "--n-min", "2", "--n-max", "3", "--d-min", "0",
     "--d-max", "100000000"],
    ["count", "-n", str(2**14000), "-d", "1"],
    ["count", "-n", "6", "-d", "100000000"],
    ["table", "--n-min", "1", "--n-max", "3", "--d-min", "0",
     "--d-max", "1"],
])
def test_sizes_beyond_printable_are_refused(capsys, argv):
    # Python renders no int of more than 4300 digits; a set that large, or
    # that many decimals, is refused before anything is printed.
    start = time.perf_counter()
    assert cli.run(argv) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("domain error: ")


def test_largest_printable_set(capsys):
    # 2^14284 has 4300 digits, 2^14285 has 4301.
    status, recs = run_lines(capsys, ["count", "--mode", "monic", "-n", "2",
                                      "-d", "14284", "--decimal", "4300"])
    assert status == 0
    assert recs[0]["result"]["total"] == 2**14284
    assert cli.run(["count", "--mode", "monic", "-n", "2", "-d", "14285"]) == 2


def test_largest_printable_set_of_a_composite(capsys):
    # The monic set modulo 10 at d = 4300 holds exactly 10^4300 tuples, a
    # size of 4301 digits: refused with one line.  At d = 4299 it is printed.
    status, recs = run_lines(capsys, ["count", "--mode", "monic", "-n", "10",
                                      "-d", "4299"])
    assert status == 0 and recs[0]["result"]["total"] == 10**4299
    assert cli.run(["count", "--mode", "monic", "-n", "10", "-d", "4300"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("domain error: the monic set at d = 4300 has a "
                            "size of more than 4300 digits\n")


def test_table_streams_rows(monkeypatch):
    # Each n's rows are written before the next n is counted, and each n
    # is factored once (through Modulus.factors; the corners' check before
    # the first row fills factorize's cache).
    out = io.StringIO()
    written, factored = [], []
    counts, factorize = cli.census.counts, arith.factorize

    def counting(*args):
        written.append(out.getvalue().count("\n"))
        return counts(*args)

    monkeypatch.setattr(cli.census, "counts", counting)
    monkeypatch.setattr(arith, "factorize",
                        lambda n: factored.append(n) or factorize(n))
    with contextlib.redirect_stdout(out):
        assert cli.run(["table", "--n-min", "2", "--n-max", "4",
                        "--d-min", "0", "--d-max", "1"]) == 0
    # One counts call per n after the header, and two rows per n.
    assert written == [1, 3, 5]
    assert factored == [2, 3, 4]
    assert out.getvalue().count("\n") == 7


@pytest.mark.parametrize("n_min, n_max, rows", [
    (2**89 - 2, 2**89 - 1, 0),  # n_max cannot be factored
    (2**89 - 1, 2**89, 0),      # nor n_min
    (2**89 - 2, 2**89, 1),      # nor an n inside the range
])
def test_table_refuses_what_it_cannot_factor(capsys, n_min, n_max, rows):
    # The corners are factored before the first row, so nothing is written;
    # an n inside the range ends the table after the rows before it (the
    # header and the row of 2^89 - 2).
    argv = ["table", "--n-min", str(n_min), "--n-max", str(n_max),
            "--d-min", "1", "--d-max", "1"]
    assert cli.run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == (reference_table(n_min, n_min + rows - 1, 1, 1,
                                            "leq", "csv") if rows else "")
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("domain error: cannot factor")


# Moduli up to 10^30 whose factorization is quick: products of small and
# large known primes, plus the edges below 2 and a prime factorize refuses.
PRIMES = [2, 3, 5, 7, 11, 13, 101, 1009, 1000003, 2**31 - 1, 2**61 - 1]
MODULI = st.one_of(
    st.integers(min_value=-3, max_value=60),
    st.lists(st.sampled_from(PRIMES), min_size=1, max_size=8)
    .map(math.prod).filter(lambda n: n <= 10**30),
    st.sampled_from([10**30, 2**89 - 1]),
)
DEGREES = st.one_of(st.integers(min_value=-1, max_value=6),
                    st.integers(min_value=0, max_value=10**6))
DECIMALS = st.one_of(st.none(), st.integers(min_value=-2, max_value=20),
                     st.integers(min_value=0, max_value=10**5))
BUDGETS = st.integers(min_value=0, max_value=10**4)
MODES = st.sampled_from(["monic", "leq", "exact"])
# Polynomials for disc and trace-form: short coefficient lists, and sparse
# x^D + bx + c whose degree D (at most 64, or from 400, which is above
# disc's bound for every n, to past the parser's 1024) shows in the text.
COEFFS = st.integers(min_value=0, max_value=10**31)
SMALL_POLYS = st.tuples(st.lists(COEFFS, max_size=8),
                        st.one_of(st.just(1), COEFFS)).map(
    lambda t: ",".join(map(str, t[0] + [t[1]])))
SPARSE_POLYS = st.tuples(
    st.one_of(st.integers(min_value=2, max_value=64),
              st.integers(min_value=400, max_value=1100)),
    COEFFS, COEFFS).map(lambda t: f"x^{t[0]}+{t[1]}x+{t[2]}")
DISC_DEGREE = re.compile(r"x\^(\d+)")


@st.composite
def argvs(draw):
    n, d = str(draw(MODULI)), str(draw(DEGREES))
    decimal = draw(DECIMALS)
    decimal = [] if decimal is None else ["--decimal", str(decimal)]
    budget = ["--budget", str(draw(BUDGETS)), "--workers", "1"]
    command = draw(st.sampled_from(
        ["factor", "count", "proportion", "enumerate", "verify", "table",
         "disc", "trace-form"]))
    if command == "factor":
        return ["factor", "-n", n]
    if command in ("disc", "trace-form"):
        polys = SMALL_POLYS if command == "trace-form" else \
            st.one_of(SMALL_POLYS, SPARSE_POLYS)
        return [command, "-n", n, "-f", draw(polys)]
    if command == "count":
        return ["count", "--mode", draw(MODES), "-n", n, "-d", d] + decimal
    if command == "proportion":
        return ["proportion", "-n", n, "-d", d] + decimal
    if command == "enumerate":
        crt = ["--crt"] if draw(st.booleans()) else []
        return ["enumerate", "--mode", draw(MODES), "-n", n, "-d", d] \
            + budget + crt
    if command == "verify":
        return ["verify", "-n", n, "--d-max", d] + budget
    n_max = str(int(n) + draw(st.integers(min_value=0, max_value=3)))
    d_max = str(int(d) + draw(st.integers(min_value=0, max_value=3)))
    return ["table", "--n-min", n, "--n-max", n_max, "--d-min", d,
            "--d-max", d_max, "--mode", draw(MODES),
            "--format", draw(st.sampled_from(["csv", "jsonl"]))]


def floats_in(value):
    if isinstance(value, float):
        return [value]
    if isinstance(value, dict):
        value = [v for k, v in value.items() if k != "elapsed"]  # a timing
    if isinstance(value, list):
        return [f for v in value for f in floats_in(v)]
    return []


@settings(max_examples=250, deadline=None, derandomize=True)
@given(argvs())
@example(["disc", "-n", "1009", "-f", "x^64+3x+1"])
@example(["disc", "-n", "1009", "-f", "x^400+3x+1"])
@example(["disc", "-n", "2", "-f", "x^1024+x+1"])
@example(["trace-form", "-n", str(10**30), "-f", "x^64+3x+1"])
def test_every_invocation_has_a_defined_answer(argv):
    # Exit 0-3, never a traceback, and no float in an exact result.
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.run(argv)
    assert status in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if status != 0:
        assert err.getvalue().count("\n") >= 1
    degree = DISC_DEGREE.search(argv[-1]) if argv[0] == "disc" else None
    if degree and 400 <= int(degree.group(1)) <= 1024:
        # Above disc's bound: refused before any work.
        assert status == 2 and out.getvalue() == ""
        assert err.getvalue().count("\n") == 1
    if argv[0] == "table" and "csv" in argv:
        assert all("." not in field
                   for row in csv.reader(io.StringIO(out.getvalue()))
                   for field in row)
        return
    for line in out.getvalue().splitlines():
        assert floats_in(json.loads(line)["result"]) == []


# The exact stdout of count and proportion with --decimal, captured before
# the "a/b" renderer reduced count/total itself; a line of 4300 decimals is
# pinned by its SHA-256.  count/total share a factor in most of these
# (100/216 = 25/54 at n = 6, degree <= 2).
RENDERED = [
    ('count --mode monic -n 6 -d 2 --decimal 0',
     '{"command": "count", "inputs": {"n": 6, "d": 2, "mode": "monic"}, "result": {"type": "count", "value": 12, "total": 36, "proportion": "1/3", "decimal": "0", "approximate": true}, "provenance": "formula"}'),
    ('count --mode monic -n 6 -d 2 --decimal 7',
     '{"command": "count", "inputs": {"n": 6, "d": 2, "mode": "monic"}, "result": {"type": "count", "value": 12, "total": 36, "proportion": "1/3", "decimal": "0.3333333", "approximate": true}, "provenance": "formula"}'),
    ('count --mode monic -n 6 -d 2 --decimal 4300',
     'sha256:e23138600fcb6ecf48e12a9f3f2f8af5f452a370a08dc73f2f7683e47cd556ec'),
    ('count --mode leq -n 6 -d 2 --decimal 0',
     '{"command": "count", "inputs": {"n": 6, "d": 2, "mode": "leq"}, "result": {"type": "count", "value": 100, "total": 216, "proportion": "25/54", "decimal": "0", "approximate": true}, "provenance": "formula"}'),
    ('count --mode leq -n 6 -d 2 --decimal 7',
     '{"command": "count", "inputs": {"n": 6, "d": 2, "mode": "leq"}, "result": {"type": "count", "value": 100, "total": 216, "proportion": "25/54", "decimal": "0.4629629", "approximate": true}, "provenance": "formula"}'),
    ('count --mode leq -n 6 -d 2 --decimal 4300',
     'sha256:855edecccd493f96078256cd14e5cad42c870fffcd1e1d72d625d608bc80aeaf'),
    ('count --mode exact -n 6 -d 2 --decimal 0',
     '{"command": "count", "inputs": {"n": 6, "d": 2, "mode": "exact"}, "result": {"type": "count", "value": 76, "total": 180, "proportion": "19/45", "decimal": "0", "approximate": true}, "provenance": "formula"}'),
    ('count --mode exact -n 6 -d 2 --decimal 7',
     '{"command": "count", "inputs": {"n": 6, "d": 2, "mode": "exact"}, "result": {"type": "count", "value": 76, "total": 180, "proportion": "19/45", "decimal": "0.4222222", "approximate": true}, "provenance": "formula"}'),
    ('count --mode exact -n 6 -d 2 --decimal 4300',
     'sha256:af90d99b480c79b37230557bb0181a856afa3566a9792b1fedf7887053e376a0'),
    ('proportion -n 6 -d 2 --decimal 0',
     '{"command": "proportion", "inputs": {"n": 6, "d": 2}, "result": {"type": "rational", "value": "1/3", "decimal": "0", "approximate": true}, "provenance": "formula"}'),
    ('proportion -n 6 -d 2 --decimal 7',
     '{"command": "proportion", "inputs": {"n": 6, "d": 2}, "result": {"type": "rational", "value": "1/3", "decimal": "0.3333333", "approximate": true}, "provenance": "formula"}'),
    ('proportion -n 6 -d 2 --decimal 4300',
     'sha256:ef2002024125498b6832a30e33c47d3c3f7835f11e5e48baf2eebdece4096aab'),
    ('count --mode monic -n 12 -d 2 --decimal 0',
     '{"command": "count", "inputs": {"n": 12, "d": 2, "mode": "monic"}, "result": {"type": "count", "value": 48, "total": 144, "proportion": "1/3", "decimal": "0", "approximate": true}, "provenance": "formula"}'),
    ('count --mode monic -n 12 -d 2 --decimal 7',
     '{"command": "count", "inputs": {"n": 12, "d": 2, "mode": "monic"}, "result": {"type": "count", "value": 48, "total": 144, "proportion": "1/3", "decimal": "0.3333333", "approximate": true}, "provenance": "formula"}'),
    ('count --mode monic -n 12 -d 2 --decimal 4300',
     'sha256:4c32b2cfdc3024c3b1480f608a51add9468cc1650d945f6d13e862d37b2ad271'),
    ('count --mode leq -n 12 -d 2 --decimal 0',
     '{"command": "count", "inputs": {"n": 12, "d": 2, "mode": "leq"}, "result": {"type": "count", "value": 800, "total": 1728, "proportion": "25/54", "decimal": "0", "approximate": true}, "provenance": "formula"}'),
    ('count --mode leq -n 12 -d 2 --decimal 7',
     '{"command": "count", "inputs": {"n": 12, "d": 2, "mode": "leq"}, "result": {"type": "count", "value": 800, "total": 1728, "proportion": "25/54", "decimal": "0.4629629", "approximate": true}, "provenance": "formula"}'),
    ('count --mode leq -n 12 -d 2 --decimal 4300',
     'sha256:e9f4a64543eb63bb6b7bd21ee3e8893eda1f7bcd1085b7a2405d9c05a397c2e4'),
    ('count --mode exact -n 12 -d 2 --decimal 0',
     '{"command": "count", "inputs": {"n": 12, "d": 2, "mode": "exact"}, "result": {"type": "count", "value": 704, "total": 1584, "proportion": "4/9", "decimal": "0", "approximate": true}, "provenance": "formula"}'),
    ('count --mode exact -n 12 -d 2 --decimal 7',
     '{"command": "count", "inputs": {"n": 12, "d": 2, "mode": "exact"}, "result": {"type": "count", "value": 704, "total": 1584, "proportion": "4/9", "decimal": "0.4444444", "approximate": true}, "provenance": "formula"}'),
    ('count --mode exact -n 12 -d 2 --decimal 4300',
     'sha256:3d1a4a0e4ced7c4bcc42b18b40cdf61d9621140bf55f340953f44d453bc5b9e1'),
    ('proportion -n 12 -d 2 --decimal 0',
     '{"command": "proportion", "inputs": {"n": 12, "d": 2}, "result": {"type": "rational", "value": "1/3", "decimal": "0", "approximate": true}, "provenance": "formula"}'),
    ('proportion -n 12 -d 2 --decimal 7',
     '{"command": "proportion", "inputs": {"n": 12, "d": 2}, "result": {"type": "rational", "value": "1/3", "decimal": "0.3333333", "approximate": true}, "provenance": "formula"}'),
    ('proportion -n 12 -d 2 --decimal 4300',
     'sha256:7bac84b81ad591d610095e36baff9e58e046bc0f3d52ab83c434db549b95fa37'),
    ('count --mode monic -n 1009 -d 2 --decimal 0',
     '{"command": "count", "inputs": {"n": 1009, "d": 2, "mode": "monic"}, "result": {"type": "count", "value": 1017072, "total": 1018081, "proportion": "1008/1009", "decimal": "0", "approximate": true}, "provenance": "formula"}'),
    ('count --mode monic -n 1009 -d 2 --decimal 7',
     '{"command": "count", "inputs": {"n": 1009, "d": 2, "mode": "monic"}, "result": {"type": "count", "value": 1017072, "total": 1018081, "proportion": "1008/1009", "decimal": "0.9990089", "approximate": true}, "provenance": "formula"}'),
    ('count --mode monic -n 1009 -d 2 --decimal 4300',
     'sha256:8fe04cb671db5d424d7c382dc72429309c56ea114d37205806ab5c26f024ec9d'),
    ('count --mode leq -n 1009 -d 2 --decimal 0',
     '{"command": "count", "inputs": {"n": 1009, "d": 2, "mode": "leq"}, "result": {"type": "count", "value": 1026226656, "total": 1027243729, "proportion": "1026226656/1027243729", "decimal": "0", "approximate": true}, "provenance": "formula"}'),
    ('count --mode leq -n 1009 -d 2 --decimal 7',
     '{"command": "count", "inputs": {"n": 1009, "d": 2, "mode": "leq"}, "result": {"type": "count", "value": 1026226656, "total": 1027243729, "proportion": "1026226656/1027243729", "decimal": "0.9990099", "approximate": true}, "provenance": "formula"}'),
    ('count --mode leq -n 1009 -d 2 --decimal 4300',
     'sha256:daf7a5caa4efa5f6d123a11f349f4351ad8efa5e3d50291a2b1923339e80dcf4'),
    ('count --mode exact -n 1009 -d 2 --decimal 0',
     '{"command": "count", "inputs": {"n": 1009, "d": 2, "mode": "exact"}, "result": {"type": "count", "value": 1025208576, "total": 1026225648, "proportion": "1008/1009", "decimal": "0", "approximate": true}, "provenance": "formula"}'),
    ('count --mode exact -n 1009 -d 2 --decimal 7',
     '{"command": "count", "inputs": {"n": 1009, "d": 2, "mode": "exact"}, "result": {"type": "count", "value": 1025208576, "total": 1026225648, "proportion": "1008/1009", "decimal": "0.9990089", "approximate": true}, "provenance": "formula"}'),
    ('count --mode exact -n 1009 -d 2 --decimal 4300',
     'sha256:b7dee2e5fbeaed0399b6902d94002aeb306c490c55987f21d5371ad93ea28380'),
    ('proportion -n 1009 -d 2 --decimal 0',
     '{"command": "proportion", "inputs": {"n": 1009, "d": 2}, "result": {"type": "rational", "value": "1008/1009", "decimal": "0", "approximate": true}, "provenance": "formula"}'),
    ('proportion -n 1009 -d 2 --decimal 7',
     '{"command": "proportion", "inputs": {"n": 1009, "d": 2}, "result": {"type": "rational", "value": "1008/1009", "decimal": "0.9990089", "approximate": true}, "provenance": "formula"}'),
    ('proportion -n 1009 -d 2 --decimal 4300',
     'sha256:d0d37502543e138d625ce8d399a6db879cb70bc47e7484da0d2987c37ca631ce'),
]


@pytest.mark.parametrize("argv, expected", RENDERED)
def test_rational_rendering_is_pinned(capsys, argv, expected):
    assert cli.run(argv.split()) == 0
    out = capsys.readouterr().out
    if expected.startswith("sha256:"):
        assert "sha256:" + hashlib.sha256(out.encode()).hexdigest() == expected
    else:
        assert out == expected + "\n"


@pytest.mark.parametrize("argv", ["count --mode monic -n 6 -d 1 --decimal -1",
                                  "proportion -n 6 -d 2 --decimal -1"])
def test_negative_decimal_is_refused(capsys, argv):
    # Below the --decimal 0 rendered above: no number of places, so one
    # line that names the accepted range and nothing on stdout.
    assert cli.run(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("domain error: --decimal must be in 0..4300, "
                            "got -1\n")


def reference_table(n_min, n_max, d_min, d_max, mode, fmt):
    """What `table` prints, built row by row with csv.writer or json.dumps
    of the record."""
    out = io.StringIO()
    writer = csv.writer(out)
    if fmt == "csv":
        writer.writerow(["n", "d", "mode", "count", "proportion"])
    for n in range(n_min, n_max + 1):
        for d in range(d_min, d_max + 1):
            r = census.count(Modulus(n), d, census.Mode(mode))
            start, stop = census.window(n, d, mode)
            p = Fraction(r, stop - start)
            proportion = f"{p.numerator}/{p.denominator}"
            if fmt == "csv":
                writer.writerow([n, d, mode, r, proportion])
            else:
                out.write(json.dumps(
                    {"command": "table", "inputs": {"n": n, "d": d, "mode": mode},
                     "result": {"type": "count", "value": r,
                                "proportion": proportion},
                     "provenance": "formula"}) + "\n")
    return out.getvalue()


PRIME_POWERS = st.sampled_from([2, 3, 5, 7, 101, 1009, 999983]).flatmap(
    lambda p: st.integers(min_value=1, max_value=int(math.log(10**12, p)))
    .map(lambda k: p**k))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.one_of(st.integers(min_value=2, max_value=10**12), PRIME_POWERS),
       st.integers(min_value=-1, max_value=40),
       st.integers(min_value=0, max_value=8),
       st.integers(min_value=-1, max_value=8),
       MODES, st.sampled_from(["csv", "jsonl"]))
def test_table_rows_match_reference(n_min, span, d_min, d_span, mode, fmt):
    d_max = min(d_min + d_span, 8)
    argv = ["table", "--n-min", str(n_min), "--n-max", str(n_min + span),
            "--d-min", str(d_min), "--d-max", str(d_max), "--mode", mode,
            "--format", fmt]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.run(argv) == 0
    expected = reference_table(n_min, n_min + span, d_min, d_max, mode, fmt)
    assert out.getvalue().splitlines(keepends=True) == \
        expected.splitlines(keepends=True)
