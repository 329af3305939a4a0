#!/usr/bin/env python3
"""CPU cost of one `bullyguard predict` process: start-up against per-line work.

Runs three cases N times each, interleaved so that a drift in CPU speed hits
every case alike, with bytecode writing off (PYTHONDONTWRITEBYTECODE=1), as
perfbench runs its children:

  pass   the bare interpreter, ended as the CLI ends a run: with os._exit,
         without the interpreter's teardown (python3 -c "import os;
         os._exit(0)"), so that empty - pass holds no teardown either
  empty  predict --quiet --model MODEL over empty input: the interpreter and
         the package's start-up
  input  predict --quiet --model MODEL over the input file

Each process's CPU time (user + system) is read from os.wait4. The script
prints the median and quartiles per case, the package's share (empty - pass)
and the per-line share (input - empty), each a difference of medians.

--src names the source directory put first on PYTHONPATH (default: this
repository's src). Given more than once, every round runs the cases of each
tree in turn, so two trees can be compared under the same drift. A source
tree that holds __pycache__ directories is read from them: the bytecode is
then cached, not compiled.

Usage: python3 scripts/predict_cost.py --model lr.model --input lines.txt
       [--runs 15] [--src DIR ...]
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
from pathlib import Path

REPO_SRC = Path(__file__).resolve().parent.parent / "src"
CASES = ("pass", "empty", "input")


def cpu_seconds(argv: list[str], stdin: str, env: dict[str, str]) -> float:
    """User plus system CPU time of one child, which must exit 0."""
    actions = [(os.POSIX_SPAWN_OPEN, 0, stdin, os.O_RDONLY, 0),
               (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
               (os.POSIX_SPAWN_OPEN, 2, os.devnull, os.O_WRONLY, 0)]
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise SystemExit(f"error: {' '.join(argv[1:])} exited with status "
                         f"{os.waitstatus_to_exitcode(status)}")
    return usage.ru_utime + usage.ru_stime


def case_commands(model: str, input_path: str) -> dict[str, tuple[list[str], str]]:
    predict = [sys.executable, "-m", "bullyguard.cli", "predict", "--quiet", "--model", model]
    return {"pass": ([sys.executable, "-c", "import os; os._exit(0)"], os.devnull),
            "empty": (predict, os.devnull),
            "input": (predict, input_path)}


def tree_env(src: Path) -> dict[str, str]:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))
    return env


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--model", required=True, help="artifact that predict loads")
    parser.add_argument("--input", required=True, help="text file, one comment per line")
    parser.add_argument("--runs", type=int, default=15, help="runs per case (default 15)")
    parser.add_argument("--src", action="append", type=Path,
                        help="source directory to measure; repeat to compare trees")
    ns = parser.parse_args(argv)
    if ns.runs < 2:
        parser.error("--runs must be at least 2, for the quartiles")
    trees = ns.src or [REPO_SRC]
    n_lines = len(Path(ns.input).read_text(encoding="utf-8").splitlines())
    commands = case_commands(ns.model, ns.input)
    times = {(tree, case): [] for tree in trees for case in CASES}
    for _ in range(ns.runs):
        for tree in trees:
            env = tree_env(tree)
            for case in CASES:
                argv_, stdin = commands[case]
                times[tree, case].append(1e3 * cpu_seconds(argv_, stdin, env))

    print(f"CPU ms per process, {ns.runs} interleaved runs per case, bytecode writing off; "
          f"pass ends in os._exit, as the CLI does")
    for tree in trees:
        print(f"\n{tree}")
        medians = {}
        for case in CASES:
            q1, medians[case], q3 = statistics.quantiles(times[tree, case], n=4,
                                                         method="inclusive")
            print(f"  {case:<6} median {medians[case]:7.1f}  quartiles [{q1:.1f}, {q3:.1f}]")
        package = medians["empty"] - medians["pass"]
        per_line = medians["input"] - medians["empty"]
        print(f"  package share (empty - pass): {package:.1f} ms")
        print(f"  per-line share (input - empty): {per_line:.1f} ms over {n_lines} lines, "
              f"{1e3 * per_line / max(n_lines, 1):.1f} us per line, "
              f"{100 * per_line / medians['input']:.0f}% of the input case")
    return 0


if __name__ == "__main__":
    sys.exit(main())
