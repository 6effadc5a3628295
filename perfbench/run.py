"""End-to-end benchmark of the `sepzn` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports sepzn from its src/.
One process, one client, closed loop: each command starts when the previous
one returns, as in batch use of the CLI.  A command is `sepzn.cli.run(argv)`
in-process, which is the console script minus interpreter start-up; start-up
is part of setup_s.  The workload's list of commands is run in passes until
S seconds have gone, and every output is checked (see check.py).

--trace 0 prints the end-to-end metrics; --trace 1 runs untraced and traced
passes in turn and prints the per-layer metrics (see spans.py).  The metric
names and units are those of BENCHMARK.json.  The last line of stdout is one
JSON object: correct, attempted, failed, metrics.  Spans and a run record go
to .bench_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from check import Checker, load_expected
from spans import Tracer, merge

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 7
# The host's CPU speed swings by up to 1.9x over seconds to minutes as other
# tenants load it, in every process alike.  Each timed run is therefore
# bracketed by a fixed pure-Python loop (the probe) and scaled by
# NOMINAL_PROBE_S / probe time: timings read as seconds on a steady CPU on
# which the probe takes NOMINAL_PROBE_S, as it does undisturbed on the
# 2-vCPU host with Python 3.11 the bounds were set on.  Commands that fan out
# to a process pool are not scaled: their work runs on other CPUs than the
# probe's, and scaling them made their spread wider, not narrower.
PROBE_STEPS = 15000
NOMINAL_PROBE_S = 0.0011


def load_program() -> dict:
    """The sepzn modules, imported from this checkout's src/."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import sepzn.cli
    if not Path(sepzn.cli.__file__).resolve().is_relative_to(src):
        raise ImportError(f"sepzn was imported from {sepzn.cli.__file__}")
    return {name: sys.modules[f"sepzn.{name}"] for name in
            ("arith", "poly", "septest", "census", "oracle", "cli")}


def tail_percentile(samples) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile)."""
    xs = sorted(samples)
    if len(xs) < 11:
        raise ValueError(f"{len(xs)} samples; a tail needs at least 11")
    return xs[-11], 100 * (len(xs) - 10) / len(xs)


def probe() -> float:
    """Seconds the reference loop takes now."""
    start = time.perf_counter()
    x = 0
    for i in range(PROBE_STEPS):
        x = (x * 31 + i) % 1000003
    return time.perf_counter() - start


def speed_since(before: float) -> float:
    """Factor that scales a run timed since the probe `before` to the
    nominal CPU speed, using the mean of that probe and one taken now."""
    return 2 * NOMINAL_PROBE_S / (before + probe())


def workers_of(argv) -> int:
    return int(argv[argv.index("--workers") + 1]) if "--workers" in argv else 1


def execute(cli, factorize, argv) -> tuple[int | str, str, float]:
    """Run one command in-process: exit code (or the exception it raised),
    stdout, and seconds spent in cli.run.  factorize is the cached function
    of sepzn.arith, unwrapped."""
    # A real command starts a fresh process, so factorize's cache never
    # carries over from one command to the next.
    factorize.cache_clear()
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            code = cli.run(list(argv))
        except Exception as e:  # a traceback is a failed command
            code = f"raised {e!r}"
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), elapsed


class Pass:
    """Scaled latencies of one pass (raw ones beside them), and factorize
    cache use summed over it."""

    def __init__(self, raw, latencies, hits, misses):
        self.raw, self.latencies = raw, latencies
        self.hits, self.misses = hits, misses


class Bench:
    """Set-up state of one run: the program, the commands and the checker."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.modules = load_program()
        self.factorize = self.modules["arith"].factorize
        groups, warmup = workloads.select(workload, seed)
        self.sizes = workloads.sizes(groups)
        self.commands = [(argv, argv) for g in groups for argv in g.argvs]
        # Coefficient tuples the oracle walks, over the whole command list.
        self.tuples = sum(g.tuples for g in groups)
        self._oracle = [argv[0] in ("enumerate", "verify")
                        for argv, _ in self.commands]
        self.checker = Checker(load_expected(), self._count_of)
        self._counts: dict[tuple, int] = {}
        self.run_pass([(warmup.argvs[0], warmup.argvs[0])])

    def run_pass(self, commands, tracer: Tracer | None = None) -> Pass:
        """Run (argv, checked-as argv) pairs in order, then check outputs."""
        results, hits, misses = [], 0, 0
        if tracer is not None:
            tracer.install(self.modules)
        try:
            for argv, _ in commands:
                before = probe()
                code, stdout, seconds = execute(self.modules["cli"],
                                                self.factorize, argv)
                speed = speed_since(before) if workers_of(argv) == 1 else 1
                results.append((code, stdout, seconds, seconds * speed))
                info = self.factorize.cache_info()
                hits, misses = hits + info.hits, misses + info.misses
        finally:
            if tracer is not None:
                tracer.uninstall()
        for (argv, expect_as), (code, stdout, _, _) in zip(commands, results):
            self.checker.record(argv, code, stdout, expect_as)
        return Pass([r[2] for r in results], [r[3] for r in results],
                    hits, misses)

    def tuples_per_s(self, latencies) -> float:
        """Tuples walked over the time spent in enumerate and verify."""
        spent = sum(t for t, o in zip(latencies, self._oracle) if o)
        return self.tuples / spent if spent else 0.0

    def _count_of(self, mode, n, d) -> int:
        """The closed-form count `sepzn count` prints, run untimed."""
        key = (mode, n, d)
        if key not in self._counts:
            argv = ("count", "--mode", mode, "-n", str(n), "-d", str(d))
            _, stdout, _ = execute(self.modules["cli"], self.factorize, argv)
            self._counts[key] = json.loads(stdout)["result"]["value"]
        return self._counts[key]


def per_command(passes: list[Pass], raw: bool = False) -> list[float]:
    """Each command's median latency over the passes, scaled unless raw."""
    return [statistics.median((p.raw if raw else p.latencies)[i]
                              for p in passes)
            for i in range(len(passes[0].latencies))]


def end_to_end(bench: Bench, seconds: int) -> tuple[dict, list[str]]:
    passes = []
    stop = time.perf_counter() + seconds
    while not passes or time.perf_counter() < stop:
        passes.append(bench.run_pass(bench.commands))
    latencies = per_command(passes)
    tail, pct = tail_percentile(latencies)
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "wall_s": sum(latencies),
        "cmd_p50_ms": 1000 * statistics.median(latencies),
        "cmd_tail_ms": 1000 * tail,
        "peak_rss_mb": (self_kb + child_kb) / 1024,
    }
    notes = [
        f"wall_s: time in sepzn.cli.run over one pass, each command the "
        f"median of its {len(passes)} runs scaled to the nominal CPU speed; "
        f"unscaled {sum(per_command(passes, raw=True)):.4f} s",
        f"cmd_p50_ms, cmd_tail_ms: over {len(latencies)} commands; the "
        f"tail is p{pct:.1f}, with 10 commands beyond it",
        f"peak_rss_mb: {self_kb / 1024:.1f} this process + "
        f"{child_kb / 1024:.1f} largest child process",
        f"fail_ratio: {bench.checker.fail_ratio:.6g} "
        f"({bench.checker.failed} of {bench.checker.attempted} executions)",
    ]
    if bench.tuples:
        notes.append(f"tuples_per_s: {bench.tuples_per_s(latencies):.6g} "
                     f"1/s ({bench.tuples} tuples in enumerate/verify "
                     f"commands)")
    else:
        notes.append("tuples_per_s: n/a, no enumerate or verify commands")
    return metrics, notes


def per_layer(bench: Bench, seconds: int) -> tuple[dict, list[str]]:
    is_pooled = [workers_of(argv) > 1 for argv, _ in bench.commands]
    pooled = [(argv[:argv.index("--workers")] + ("--workers", "1"), argv)
              for (argv, _), p in zip(bench.commands, is_pooled) if p]
    plains, traceds, serials, cycles = [], [], [], []
    stop = time.perf_counter() + seconds
    while not cycles or time.perf_counter() < stop:
        plains.append(bench.run_pass(bench.commands))
        given, rerun = Tracer(), None
        traceds.append(bench.run_pass(bench.commands, given))
        if pooled:
            serials.append(bench.run_pass(pooled))
            rerun = Tracer()
            bench.run_pass(pooled, rerun)
        cycles.append(layer_metrics(bench, traceds[-1], given, rerun))
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{bench.workload}-seed{bench.seed}.tsv.gz"
    given.write(spans, "given", "wt")
    if rerun is not None:
        rerun.write(spans, "serial", "at")

    metrics = {k: statistics.median(c[k] for c in cycles) for k in cycles[0]}
    plain = per_command(plains)
    metrics["trace.overhead_s"] = sum(per_command(traceds)) - sum(plain)
    metrics["oracle.tuples_per_s"] = bench.tuples_per_s(plain)
    # Raw times on both sides: the pooled commands are not scaled.
    pooled_s = sum(t for t, p in zip(per_command(plains, raw=True), is_pooled)
                   if p)
    metrics["oracle.parallel_speedup"] = (
        sum(per_command(serials, raw=True)) / pooled_s if pooled else 0.0)
    notes = [f"{len(cycles)} cycles of an untraced and a traced pass"
             + (f", then both again with the {len(pooled)} pooled commands "
                "at --workers 1" if pooled else ""),
             "counts are per pass; span times are medians over cycles; "
             "overhead, tuples_per_s and parallel_speedup use each "
             "command's median scaled latency",
             f"spans of the last cycle: {spans.relative_to(ROOT)}"]
    return metrics, notes


def layer_metrics(bench: Bench, traced: Pass, given: Tracer,
                  rerun: Tracer | None) -> dict:
    """Span metrics of one cycle.  Pool workers are not traced, so the layers
    under oracle.count_range come from the serial re-run of the pooled
    commands and everything else from the run as given."""
    walk = "oracle.count_range"
    stats = merge(given.stats(), rerun.stats(within=walk) if rerun else {})
    in_walk = merge(given.stats(within=walk),
                    rerun.stats(within=walk) if rerun else {})

    def get(name, key="calls", table=stats):
        return table.get(name, {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    census = [s for name, s in stats.items() if name.startswith("census.")]
    return {
        "arith.factorize.calls": get("arith.factorize"),
        "arith.factorize.s": get("arith.factorize", "s"),
        "arith.factorize.cache_hit_ratio": ratio(
            traced.hits, traced.hits + traced.misses),
        "poly.polyzn.calls": get("poly.PolyZn"),
        "poly.polyzn.s": get("poly.PolyZn", "s"),
        "poly.rem_by_monic.calls": get("poly.rem_by_monic"),
        "poly.rem_by_monic.s": get("poly.rem_by_monic", "s"),
        "poly.parse.s": get("poly.parse", "s"),
        "septest.is_separable.calls": get("septest.is_separable"),
        "septest.is_separable.s": get("septest.is_separable", "s"),
        "septest.is_separable.true_ratio": ratio(
            get("septest.is_separable", "true"), get("septest.is_separable")),
        "septest.trace.calls": get("septest.trace"),
        "septest.trace_form.s": get("septest.trace_form", "s"),
        "septest.det.self_s": get("septest.discriminant", "self_s"),
        "census.calls": sum(s["outer_calls"] for s in census),
        "census.s": sum(s["outer_s"] for s in census),
        "oracle.tuples": bench.tuples,
        "oracle.tests_per_tuple": ratio(
            get("septest.is_separable", table=in_walk), bench.tuples),
        "oracle.walk.self_s": get(walk, "self_s"),
        "oracle.us_per_tuple": 1e6 * ratio(get(walk, "s"), bench.tuples),
        "oracle.pool.s": get("oracle.pool", "s"),
        "oracle.pool.starts": get("oracle.pool"),
        "cli.commands": get("cli.run"),
        "cli.self_s": get("cli.run", "self_s"),
    }


def setup_seconds(workload: str, seed: int) -> list[tuple[float, float]]:
    """Raw and scaled wall times of fresh processes that only set up: start
    the interpreter, import sepzn, generate the inputs, load the expected
    outputs and run one warm-up command."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload",
            workload, "--seed", str(seed), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        before = probe()
        start = time.perf_counter()
        subprocess.run(argv, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        seconds = time.perf_counter() - start
        times.append((seconds, seconds * speed_since(before)))
    return times


def loadavg() -> list[float]:
    with open("/proc/loadavg") as f:
        return [float(x) for x in f.read().split()[:3]]


def git_commit() -> str:
    try:
        done = subprocess.run(["git", "--git-dir", str(ROOT / ".git"),
                               "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    nproc = len(os.sched_getaffinity(0))
    load_start = loadavg()
    try:
        bench = Bench(args.workload, args.seed)
    except ImportError as e:
        print(f"perfbench: cannot import sepzn from {ROOT / 'src'}: {e}",
              file=sys.stderr)
        return 2
    if args.setup_only:
        return 0

    if args.trace:
        metrics, notes = per_layer(bench, args.seconds)
        kind = "per_layer"
    else:
        metrics, notes = end_to_end(bench, args.seconds)
        setups = setup_seconds(args.workload, args.seed)
        metrics["setup_s"] = statistics.median(s for _, s in setups)
        notes.append(f"setup_s: median of {len(setups)} fresh processes, "
                     "scaled; unscaled "
                     + " ".join(f"{t:.4f}" for t, _ in setups))
        kind = "end_to_end"

    load_end = loadavg()
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "commit": git_commit(),
        "python": platform.python_version(), "nproc": nproc,
        "loadavg_start": load_start, "loadavg_end": load_end,
        "overloaded": max(load_start[0], load_end[0]) > nproc,
        "load_model": "closed loop, 1 client, --workers at most 2",
        "sizes": bench.sizes,
        "problems": list(bench.checker.problems.values())[:20],
    }
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)[kind]
    result = {
        "correct": bench.checker.failed == 0,
        "attempted": bench.checker.attempted,
        "failed": bench.checker.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in spec},
    }
    record["result"] = result
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"record-{args.workload}-seed{args.seed}"
              f"-trace{args.trace}.json", "w") as f:
        json.dump(record, f, indent=1)

    print(f"perfbench {args.workload} seed {args.seed}: "
          f"{len(bench.commands)} commands, {record['load_model']}")
    print("sizes: " + json.dumps(bench.sizes))
    if record["overloaded"]:
        print(f"WARNING: 1-minute load {max(load_start[0], load_end[0])} "
              f"exceeded nproc {nproc}; timings are suspect")
    for m in spec:
        print(f"{m['name']:34} {metrics[m['name']]:>14.6g} {m['unit']}")
    for note in notes:
        print("  " + note)
    for problem in record["problems"]:
        print("FAILED " + problem)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
