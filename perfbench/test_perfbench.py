"""Tests of the benchmark itself.

    python3 -m pytest perfbench
"""

import pytest

import workloads
from check import Checker, command_key, load_expected, stdout_digest
from run import execute, load_program, tail_percentile
from spans import Tracer

MODULES = load_program()
FACTORIZE = MODULES["arith"].factorize


def run_cli(argv):
    return execute(MODULES["cli"], FACTORIZE, argv)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond_it():
    assert tail_percentile(range(1, 101)) == (90, 90.0)
    value, pct = tail_percentile([5.0] * 3 + list(range(20)))
    assert value == 9 and pct == pytest.approx(100 * 13 / 23)
    assert tail_percentile(range(11)) == (0, 100 / 11)
    with pytest.raises(ValueError):
        tail_percentile(range(10))


def _span(tracer, name, parent, start, end):
    tracer.parent.append(parent)
    tracer.name.append(tracer._name_id(name))
    tracer.start.append(start)
    tracer.end.append(end)
    tracer.true.append(0)
    return len(tracer.start) - 1


def test_self_time_subtracts_only_direct_children():
    t = Tracer()
    root = _span(t, "cli.run", -1, 0.0, 10.0)
    _span(t, "census.count", root, 1.0, 3.0)
    walk = _span(t, "oracle.count_range", root, 4.0, 8.0)
    _span(t, "census.count", walk, 5.0, 5.5)
    _span(t, "septest.is_separable", walk, 6.0, 7.0)
    stats = t.stats()
    assert stats["cli.run"]["self_s"] == 10 - 2 - 4
    assert stats["oracle.count_range"]["self_s"] == 4 - 0.5 - 1
    assert stats["census.count"]["calls"] == 2
    assert stats["census.count"]["s"] == 2.5
    inside = t.stats(within="oracle.count_range")
    assert set(inside) == {"oracle.count_range", "census.count",
                           "septest.is_separable"}
    assert inside["census.count"]["calls"] == 1


def test_outer_calls_skip_spans_nested_in_the_same_layer():
    t = Tracer()
    calls = []

    def inner():
        calls.append("inner")
        return True

    wrapped_inner = t.wrap("census.inner", inner)
    outer = t.wrap("census.outer", lambda: wrapped_inner())
    assert outer() is True and wrapped_inner() is True
    stats = t.stats()
    assert stats["census.inner"]["calls"] == 2
    assert stats["census.inner"]["outer_calls"] == 1
    assert stats["census.inner"]["true"] == 2
    assert t.parent[1] == 0


def test_tracer_keeps_pool_workers_untraced_and_restores_originals():
    argv = ("enumerate", "--mode", "leq", "-n", "5", "-d", "2",
            "--workers", "2")
    untraced = run_cli(argv)[:2]
    originals = {name: dict(vars(module)) for name, module in MODULES.items()}
    tracer = Tracer()
    tracer.install(MODULES)
    try:
        assert run_cli(argv)[:2] == untraced == (0, untraced[1])
    finally:
        tracer.uninstall()
    stats = tracer.stats()
    assert stats["oracle.pool"]["calls"] == 1
    assert stats["cli.run"]["calls"] == 1
    assert "oracle.count_range" not in stats  # ran in the workers
    for name, module in MODULES.items():
        assert all(vars(module)[k] is v for k, v in originals[name].items())


def test_corrupted_stdout_raises_fail_ratio():
    argv = ("factor", "-n", "15")
    code, stdout, _ = run_cli(argv)
    assert stdout.count("\n") == 1 and "[[3, 1], [5, 1]]" in stdout
    corrupted = stdout.replace("[5, 1]", "[7, 1]")
    checker = Checker({command_key(argv): [0, stdout_digest(argv, stdout)]},
                      count_of=None)
    assert checker.record(argv, code, stdout)
    assert checker.fail_ratio == 0
    assert not checker.record(argv, code, corrupted)
    assert checker.fail_ratio == 0.5
    assert not checker.record(argv, code, "not json\n")
    assert checker.fail_ratio == 2 / 3
    # A capture that was itself wrong is caught by the independent check.
    wrong = Checker({command_key(argv): [0, stdout_digest(argv, corrupted)]},
                    count_of=None)
    assert not wrong.record(argv, 0, corrupted)
    assert wrong.fail_ratio == 1


def test_selection_is_seeded_and_every_candidate_was_captured():
    expected = load_expected()
    for workload in workloads.WORKLOADS:
        assert workloads.select(workload, 7) == workloads.select(workload, 7)
        for candidates in workloads.catalogue(workload):
            for group in candidates:
                for argv in group.argvs:
                    assert command_key(argv) in expected, argv
    n_values = [argv[2] for candidates in workloads.catalogue("factor_large_n")
                for g in candidates for argv in g.argvs if argv[0] != "table"]
    assert len(n_values) == len(set(n_values))
