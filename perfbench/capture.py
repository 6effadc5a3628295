"""Write expected.json: the exit code and stdout digest of every candidate
command of every workload, produced by the sepzn in this checkout's src/.

    python3 perfbench/capture.py

The captures are the reference the benchmark checks outputs against, so run
this only on the commit whose outputs are the reference.  It refuses to
write when any output fails the independent checks in check.py.
"""

from __future__ import annotations

import json
import sys

import workloads
from check import EXPECTED, Checker, command_key, stdout_digest
from run import execute, load_program


def main() -> int:
    modules = load_program()

    def run(argv):
        return execute(modules["cli"], modules["arith"].factorize, argv)

    outputs = {}
    for workload in workloads.WORKLOADS:
        for candidates in workloads.catalogue(workload):
            for group in candidates:
                for argv in group.argvs:
                    outputs[argv] = run(argv)[:2]
    expected = {command_key(argv): [code, stdout_digest(argv, stdout)]
                for argv, (code, stdout) in outputs.items()}

    def count_of(mode, n, d):
        argv = ("count", "--mode", mode, "-n", str(n), "-d", str(d))
        return json.loads(run(argv)[1])["result"]["value"]

    checker = Checker(expected, count_of)
    for argv, (code, stdout) in outputs.items():
        checker.record(argv, code, stdout)
    if checker.failed:
        for problem in checker.problems.values():
            print(problem, file=sys.stderr)
        return 1
    with open(EXPECTED, "w") as f:
        f.write("{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}"
                                    for k, v in sorted(expected.items()))
                + "\n}\n")
    print(f"{len(expected)} commands captured in {EXPECTED.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
