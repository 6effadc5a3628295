"""Run the benchmark of two checkouts in alternating pairs and compare them.

    python tools/pairs.py --parent DIR --change DIR --workload W --pairs N \
        --first-seed K [--json FILE]

Pair i runs `perfbench/run.py --workload W --seed K+i --seconds S` (the
command BENCHMARK.json names, S its run_seconds) in each checkout, the
parent first on even i and the change first on odd i, so that a drift of
the host's speed falls on both sides alike.  The last line of each run's
stdout is its result.

For each end-to-end metric of BENCHMARK.json it prints the two medians, the
parent's interquartile range (statistics.quantiles, n=4, inclusive), the
change's wins out of the pairs (a tie counts for neither side) and a
verdict: within, when the change's median is within the metric's bound of
the parent's; BREACH, when it is not; unresolved, when the parent's IQR is
wider than the bound (relative to its median), which then cannot tell the
two apart, unless every change run beats every parent run.  A run
that is not correct, has failed operations or prints no result is printed
too, and makes the exit status 1.  --json writes the workload's entry in
the shape of the `workloads` entries of the BENCH_*.json files.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
SIDES = ("parent", "change")


def run(checkout: Path, command: list, workload: str, seed: int,
        seconds: int):
    """The result record one benchmark run prints last, or None."""
    done = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if done.returncode == 0 else None
    except (IndexError, ValueError):
        return None


def quartiles(values: list) -> list:
    if len(values) < 2:
        return values * 2
    low, _, high = statistics.quantiles(values, n=4, method="inclusive")
    return [low, high]


def summarize(seeds: list, first: list, seconds: int, records: dict,
              end_to_end: list):
    """The workload's BENCH_*.json entry, each metric with its verdict,
    and the faults: a line for each run that printed no
    record, was not correct or failed an operation.  records maps each side
    to its records, one per pair, None where a run printed none."""
    entry = {"seeds": seeds, "pairs": len(seeds), "seconds": seconds,
             "first": first, "failed": {}, "attempted": {}, "correct": {},
             "metrics": {}}
    faults = []
    for side in SIDES:
        for key in ("failed", "attempted", "correct"):
            entry[key][side] = [r and r[key] for r in records[side]]
        for seed, r in zip(seeds, records[side]):
            if r is None:
                faults.append(f"{side} seed {seed}: no result")
            elif not r["correct"] or r["failed"]:
                faults.append(f"{side} seed {seed}: correct {r['correct']}, "
                              f"failed {r['failed']} of {r['attempted']}")
    pairs = [(p, c) for p, c in zip(records["parent"], records["change"])
             if p and c]
    for metric in end_to_end if pairs else ():
        name, lower = metric["name"], metric["better"] == "lower"
        values = {side: [r[i]["metrics"][name]["value"] for r in pairs]
                  for i, side in enumerate(SIDES)}
        parent, change = (statistics.median(values[s]) for s in SIDES)
        low, high = quartiles(values["parent"])
        wins = sum((c < p) if lower else (c > p)
                   for p, c in zip(values["parent"], values["change"]))
        bound = metric["bound"]
        limit = parent * (1 + bound if lower else 1 - bound)
        beats_all = (max(values["change"]) < min(values["parent"]) if lower
                     else min(values["change"]) > max(values["parent"]))
        if high - low > bound * abs(parent) and not beats_all:
            verdict = "unresolved"
        elif change <= limit if lower else change >= limit:
            verdict = "within"
        else:
            verdict = "BREACH"
        entry["metrics"][name] = {
            **values, "parent_median": parent, "change_median": change,
            "parent_quartiles": [low, high],
            "change_quartiles": quartiles(values["change"]),
            "change_pct": 100 * (change - parent) / parent if parent else 0.0,
            "change_wins": f"{wins}/{len(pairs)}", "parent_iqr": high - low,
            "verdict": verdict}
    return entry, faults


def report(entry: dict, faults: list, end_to_end: list) -> list:
    """The lines printed for one workload's summary."""
    lines = [f"{'metric':12} {'parent':>11} {'change':>11} {'parent IQR':>11} "
             f"{'diff':>8} {'wins':>6}  bound"]
    for metric in end_to_end:
        m = entry["metrics"].get(metric["name"])
        if m:
            lines.append(
                f"{metric['name']:12} {m['parent_median']:11.5g} "
                f"{m['change_median']:11.5g} {m['parent_iqr']:11.3g} "
                f"{m['change_pct']:+7.1f}% {m['change_wins']:>6}  "
                f"{m['verdict']} {metric['bound']:.0%} ({metric['unit']})")
    return lines + [f"FAULT {fault}" for fault in faults]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--json", type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    spec = json.loads(SPEC.read_text())
    seconds = spec["run_seconds"]
    checkouts = {"parent": args.parent, "change": args.change}
    seeds = [args.first_seed + i for i in range(args.pairs)]
    first = [SIDES[i % 2] for i in range(args.pairs)]
    records = {side: [] for side in SIDES}
    for seed, lead in zip(seeds, first):
        for side in SIDES if lead == "parent" else SIDES[::-1]:
            record = run(checkouts[side], spec["command"], args.workload,
                         seed, seconds)
            records[side].append(record)
            wall = record and record["metrics"]["wall_s"]["value"]
            print(f"seed {seed} {side:6} wall_s {wall}", flush=True)
    entry, faults = summarize(seeds, first, seconds, records,
                              spec["end_to_end"])
    print(f"{args.workload}: {args.pairs} pairs of {seconds} s, seeds "
          f"{seeds[0]}-{seeds[-1]}")
    print("\n".join(report(entry, faults, spec["end_to_end"])))
    if args.json:
        args.json.write_text(json.dumps(entry, indent=1) + "\n")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
