#!/usr/bin/env python3
"""bullyguard benchmark: four workloads, end to end and per layer.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the repository root. Every workload runs ``bullyguard`` commands as
child processes of this one process, one at a time (a closed loop with one
client: the CLI is a batch filter), and checks their outputs:

  study-200       ``bullyguard benchmark`` on 200 generated comments: the
                  paper's five-model comparison, dominated by classical
                  training.
  train-1k        ``bullyguard train`` once per family on 1,000 generated
                  comments; neural training dominates and artifacts are
                  written.
  predict-linear  ``bullyguard predict`` over a comment stream with the nb,
                  lr and svm artifacts: preprocessing and TF-IDF per line.
  predict-neural  the same stream with the bilstm and bilstm_attention
                  artifacts: neural forward passes at batch 1.

``--seed`` picks one of ``SLOTS`` input sets (corpus, stream), each with
reference outputs stored under ``reference/``; ``--workload all`` runs the
four workloads one after another. A run repeats the workload's round of
commands until ``--seconds`` is used, at least ``MIN_ROUNDS`` times, and
reports medians.

Each core of a shared two-core machine switches, every few seconds and
independently of the other, between full speed and up to 1.6 times slower,
for interpreted and numpy code alike; the median over a run does not hide
that. So before each child starts, this process times a short fixed loop
(``speed_probe``) on every core it may use and moves to the fastest one,
which the child inherits. While the child runs, this process wakes every
``PROBE_PERIOD_S`` to time the loop again on that core (about 2% of the
core). A child's wall time is also reported rescaled by the mean probe time
to the loop's reference speed (``REFERENCE_PROBE_S``); the gated times are
the rescaled ones.

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of one round run under
``tracer.py``, next to an untraced round whose outputs must be
byte-identical. ``--write-reference`` stores the outputs of the run as the
reference of its seed.

Child processes get ``BLAS_THREADS`` BLAS threads and share this process's
core.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CONFIG = BENCH / "bench.ini"
REFERENCE_DIR = BENCH / "reference"
SLOTS = 10
BLAS_THREADS = 1
SETUP_PROBES = 8        # set-up probes per run, spread over the kinds of invocation
MIN_ROUNDS = 3          # the median of fewer rounds does not reject a slow one
PROBE_WARMUP = 100      # untimed predict_text calls per model before timing
SCORE_EVERY = 16        # stored reference scores: every 16th stream line
SCORE_TOLERANCE = 1e-6
CHILD_TIMEOUT_S = 170
PROBE_PERIOD_S = 0.05      # speed probes while a child runs
PROBE_KEEP = 0.9            # share of a child's probes averaged; the slowest were disturbed
# Rescaled times are seconds on a core where the speed probe takes this long,
# about its time between a child's time slices on an undisturbed core of a
# two-core x86-64 VM (numpy 2, OpenBLAS 0.3.31).
REFERENCE_PROBE_S = 0.00070
PY = sys.executable
CORES = sorted(os.sched_getaffinity(0))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = str(BLAS_THREADS)   # before numpy is imported, here and in children

LINEAR = ("nb", "lr", "svm")
NEURAL = ("bilstm", "bilstm_attention")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str               # study, train or predict
    corpus_n: int
    families: tuple = ()


# Corpus sizes keep each round short. On two shared cores the CPU speed
# drifts by 15-35% over tens of seconds, and the median over several short
# rounds in a run is steadier than one long round (one 2,000-comment study
# takes about 45 s). Predict artifacts are trained on 400 comments: the
# generator's vocabulary is saturated well before that, so they have the
# shapes of artifacts trained on 2,000, and their training is preparation,
# not measurement.
WORKLOADS = {
    w.name: w for w in (
        Workload("study-200", "study", 200),
        Workload("train-1k", "train", 1000, LINEAR + NEURAL),
        Workload("predict-linear", "predict", 400, LINEAR),
        Workload("predict-neural", "predict", 400, NEURAL),
    )
}

EXTRA_LAYER_METRICS = [
    ("artifact.line_p50_us", "us"),
    ("artifact.line_p99_us", "us"),
    ("artifact.line_samples", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.self_time_share", "ratio"),
    ("trace.spans", "count"),
]


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, failed preparation)."""


# ----------------------------------------------------------------------------
# child processes
# ----------------------------------------------------------------------------

def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


_PROBE_STATE = None


def speed_probe() -> float:
    """Seconds of a fixed mix of interpreted and small-numpy work, about 1 ms."""
    global _PROBE_STATE
    if _PROBE_STATE is None:
        import numpy as np
        rng = np.random.default_rng(0)
        _PROBE_STATE = (np, rng.random((64, 64)) / 64, rng.random(64))
    np, matrix, x = _PROBE_STATE
    began = time.perf_counter()
    total = 0
    for i in range(6_000):
        total += i * i
    for _ in range(150):
        x = np.tanh(matrix @ x)
    return time.perf_counter() - began


def pin_fastest_core() -> None:
    """Move this process, and so the next child, to the currently fastest core."""
    def speed(core: int) -> float:
        os.sched_setaffinity(0, {core})
        return statistics.median(speed_probe() for _ in range(5))
    os.sched_setaffinity(0, {min(CORES, key=speed)})


def rescale(wall_s: float, probes: list[float]) -> float:
    kept = sorted(probes)[:max(1, round(len(probes) * PROBE_KEEP))]
    return wall_s * REFERENCE_PROBE_S / statistics.fmean(kept)


@dataclass
class Proc:
    code: int
    wall_s: float
    ref_s: float            # wall_s rescaled to the reference core speed
    rss_mb: float
    stdout: Path
    stderr: Path

    def failure(self) -> str | None:
        err = self.stderr.read_text(encoding="utf-8", errors="replace")
        if self.code != 0:
            return f"exit code {self.code}: {(err.strip().splitlines() or [''])[-1]}"
        if "Traceback (most recent call last)" in err:
            return "traceback on stderr"
        return None


def spawn(argv: list[str], stdout: Path, stderr: Path, stdin: Path | None = None) -> Proc:
    """Run one child to completion on the fastest core, probing that core's
    speed while it runs; wall time and peak RSS from wait4."""
    probes = []
    pin_fastest_core()
    with open(stdout, "wb") as out, open(stderr, "wb") as err, \
            (open(stdin, "rb") if stdin else open(os.devnull, "rb")) as inp:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=inp, stdout=out, stderr=err,
                                cwd=ROOT, env=child_env())
        exited = os.pidfd_open(proc.pid)
        try:
            poller = select.poll()
            poller.register(exited, select.POLLIN)
            while True:
                probes.append(speed_probe())
                if poller.poll(PROBE_PERIOD_S * 1000):
                    break
                if time.perf_counter() - started > CHILD_TIMEOUT_S:
                    proc.kill()
        except BaseException:
            proc.kill()
            raise
        finally:
            os.close(exited)
            _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, wall, rescale(wall, probes), usage.ru_maxrss / 1024.0,
                stdout, stderr)


def run_checked(argv: list[str], work: Path, tag: str) -> Proc:
    proc = spawn(argv, work / f"{tag}.out", work / f"{tag}.err")
    problem = proc.failure()
    if problem:
        raise BenchError(f"{tag} failed: {problem}")
    return proc


# ----------------------------------------------------------------------------
# inputs and commands
# ----------------------------------------------------------------------------

@dataclass
class Command:
    args: list[str]                 # bullyguard CLI arguments
    setup: tuple[str, ...]          # setup_probe.py arguments
    stdin: Path | None = None
    outputs: list[Path] = field(default_factory=list)   # compared across rounds


def prepare(wl: Workload, slot: int, work: Path) -> dict:
    families = wl.families if wl.kind == "predict" else ()
    run_checked([PY, str(BENCH / "worker.py"), "prepare", str(work), str(wl.corpus_n),
                 str(slot), str(CONFIG), *families], work, "prepare")
    return json.loads((work / "info.json").read_text(encoding="utf-8"))


def round_commands(wl: Workload, work: Path, rdir: Path) -> list[Command]:
    corpus = str(work / "corpus.csv")
    if wl.kind == "study":
        out = rdir / "study"
        return [Command(
            ["benchmark", "--config", str(CONFIG), "--quiet", "--corpus", corpus,
             "--out-dir", str(out)],
            ("corpus", corpus, str(CONFIG)),
            outputs=[out / "benchmark_report.json", out / "benchmark_tables.txt"],
        )]
    if wl.kind == "train":
        return [Command(
            ["train", "--config", str(CONFIG), "--quiet", "--corpus", corpus,
             "--family", family, "--out", str(rdir / f"{family}.model")],
            ("corpus", corpus, str(CONFIG)),
            outputs=[rdir / f"{family}.model"],
        ) for family in wl.families]
    return [Command(
        ["predict", "--quiet", "--model", str(work / f"{family}.model")],
        ("artifact", str(work / f"{family}.model")),
        stdin=work / "stream.txt",
    ) for family in wl.families]


def lines_per_round(wl: Workload, work: Path) -> int:
    if wl.kind == "predict":
        n_lines = len((work / "stream.txt").read_text(encoding="utf-8").splitlines())
        return n_lines * len(wl.families)
    return wl.corpus_n * (len(wl.families) if wl.kind == "train" else 1)


# ----------------------------------------------------------------------------
# rounds
# ----------------------------------------------------------------------------

@dataclass
class Round:
    directory: Path
    wall_s: float = 0.0
    ref_s: float = 0.0                  # wall_s rescaled to the reference speed
    rss_mb: float = 0.0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    outputs: dict[str, bytes] = field(default_factory=dict)
    stdouts: dict[str, str] = field(default_factory=dict)
    dumps: list[dict] = field(default_factory=list)


def run_round(wl: Workload, work: Path, index: int, traced: bool) -> Round:
    rdir = work / f"round{index}{'-traced' if traced else ''}"
    rdir.mkdir()
    result = Round(rdir)
    for i, cmd in enumerate(round_commands(wl, work, rdir)):
        if traced:
            spans = rdir / f"spans{i}.json"
            argv = [PY, str(BENCH / "tracer.py"), "--spans", str(spans), "--", *cmd.args]
        else:
            argv = [PY, "-m", "bullyguard.cli", *cmd.args]
        proc = spawn(argv, rdir / f"cmd{i}.out", rdir / f"cmd{i}.err", cmd.stdin)
        result.attempted += 1
        result.wall_s += proc.wall_s
        result.ref_s += proc.ref_s
        result.rss_mb = max(result.rss_mb, proc.rss_mb)
        problem = proc.failure()
        if problem:
            result.failures.append(f"{' '.join(cmd.args[:1])} #{i}: {problem}")
            continue
        printed = proc.stdout.read_bytes()
        result.outputs[f"stdout{i}"] = printed
        result.stdouts[wl.families[i] if wl.families else wl.kind] = printed.decode("utf-8")
        for path in cmd.outputs:
            result.outputs[path.name] = path.read_bytes()
        if traced:
            result.dumps.append(json.loads(spans.read_text(encoding="utf-8")))
    return result


def measure_setup(wl: Workload, work: Path) -> tuple[float, list[float]]:
    """Per-round set-up: sum over the round's commands of the median rescaled
    probe time of the command's kind. Probes of different kinds are interleaved."""
    cmds = round_commands(wl, work, work)
    kinds = list(dict.fromkeys(cmd.setup for cmd in cmds))
    reps = max(2, -(-SETUP_PROBES // len(kinds)))
    samples: dict[tuple, list[float]] = {kind: [] for kind in kinds}
    for rep in range(reps):
        for k, kind in enumerate(kinds):
            proc = spawn([PY, str(BENCH / "setup_probe.py"), *kind],
                         work / f"setup{k}-{rep}.out", work / f"setup{k}-{rep}.err")
            problem = proc.failure()
            if problem:
                raise BenchError(f"set-up probe {kind[0]} failed: {problem}")
            samples[kind].append(proc.ref_s)
    total = sum(statistics.median(samples[cmd.setup]) for cmd in cmds)
    per_rep = [sum(samples[cmd.setup][rep] for cmd in cmds) for rep in range(reps)]
    return total, per_rep


# ----------------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------------

def _confusions(report: dict) -> dict[str, list]:
    """Confusion matrices rebuilt from per-class recall and support."""
    def matrix(rep: dict) -> list[list[int]]:
        rows = []
        for i, cls in enumerate(("Bullying", "Non-bullying")):
            support = rep["per_class"][cls]["support"]
            hit = round(rep["per_class"][cls]["recall"] * support)
            rows.append([hit, support - hit] if i == 0 else [support - hit, hit])
        return rows
    out = {m["name"]: [matrix(r) for r in m["fold_reports"]] for m in report["ml_models"]}
    out.update({m["name"]: [matrix(m["test_report"])] for m in report["dl_models"]})
    return out


def _label_string(printed: list[str]) -> str:
    return "".join(line.split("\t", 1)[0][:1] for line in printed)


def reference_path(wl: Workload, slot: int) -> Path:
    return REFERENCE_DIR / wl.name / f"seed-{slot}.json"


def observed_reference(wl: Workload, first: Round, probe_out: dict | None) -> dict:
    if wl.kind == "study":
        return {"confusion": _confusions(json.loads(first.outputs["benchmark_report.json"]))}
    if wl.kind == "train":
        return {"probe_labels": {f: _label_string(probe_out[f]["printed"]) for f in wl.families}}
    printed = {f: first.stdouts[f].splitlines() for f in wl.families}
    return {
        "lines": len(next(iter(printed.values()))),
        "labels": {f: _label_string(p) for f, p in printed.items()},
        "scores": {f: [line.split("\t")[1] for line in p[::SCORE_EVERY]]
                   for f, p in printed.items()},
    }


def _score_mismatch(a: str, b: str) -> bool:
    return abs(float(a) - float(b)) > SCORE_TOLERANCE


def check_against(wl: Workload, observed: dict, stored: dict) -> tuple[int, list[str]]:
    """Failed operations and differences against the stored reference.

    A study or predict invocation fails as a whole; in train, each probe
    label is one predict_text call."""
    problems, failed = [], 0
    if wl.kind == "study":
        for model, folds in stored["confusion"].items():
            if observed["confusion"].get(model) != folds:
                problems.append(f"{model}: confusion matrices differ from the reference")
        return min(1, len(problems)), problems
    if wl.kind == "train":
        for family, labels in stored["probe_labels"].items():
            got = observed["probe_labels"].get(family, "")
            bad = sum(a != b for a, b in zip(got, labels)) + abs(len(got) - len(labels))
            if bad:
                problems.append(f"{family}: {bad} probe labels differ from the reference")
            failed += bad
        return failed, problems
    if observed["lines"] != stored["lines"]:
        return 1, [f"printed {observed['lines']} lines, reference has {stored['lines']}"]
    for family in stored["labels"]:
        labels, ref = observed["labels"][family], stored["labels"][family]
        bad = sum(a != b for a, b in zip(labels, ref))
        bad += sum(_score_mismatch(a, b)
                   for a, b in zip(observed["scores"][family], stored["scores"][family]))
        if bad:
            problems.append(f"{family}: {bad} labels or scores differ from the reference")
            failed += 1
    return failed, problems


def check_probe(wl: Workload, first: Round, probe_out: dict) -> tuple[int, int, list[str]]:
    """In-process predict_text against the CLI's printed lines, line by line."""
    attempted, bad, problems = 0, 0, []
    for family in wl.families:
        cli_lines = first.stdouts.get(family, "").splitlines()
        entry = probe_out[family]
        attempted += len(entry["printed"])
        wrong = sum(
            1 for i, line in zip(entry["line"], entry["printed"])
            if i >= len(cli_lines)
            or line.split("\t")[0] != cli_lines[i].split("\t")[0]
            or _score_mismatch(line.split("\t")[1], cli_lines[i].split("\t")[1])
        )
        if wrong:
            problems.append(f"{family}: {wrong} predict_text results differ from the CLI")
        bad += wrong
    return attempted, bad, problems


def run_probe(wl: Workload, work: Path, lines: Path, round_dir: Path, warmup: int) -> dict:
    """Latency probe over the stream (predict) or label probe (train)."""
    out = work / f"probe-{lines.stem}.json"
    spread = "1" if wl.kind == "predict" else "0"
    run_checked([PY, str(BENCH / "worker.py"), "probe", str(lines), str(out), str(warmup), spread,
                 *(str(round_dir / f"{f}.model") for f in wl.families)], work, f"probe-{lines.stem}")
    return json.loads(out.read_text(encoding="utf-8"))


# ----------------------------------------------------------------------------
# statistics and reporting
# ----------------------------------------------------------------------------

def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def run_record(wl: Workload, seed: int, slot: int, info: dict) -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {"workload": wl.name, "seed": seed, "input_slot": slot, "git_sha": sha,
            "src_py_lines": src_lines, "nproc": os.cpu_count(),
            "blas_threads": BLAS_THREADS, **info}


def print_table(rows: list[tuple[str, str, list[float]]]) -> None:
    print(f"{'metric':<22} {'unit':<8} {'median':>12} {'q1':>12} {'q3':>12} {'n':>6}")
    for name, unit, values in rows:
        q1, med, q3 = quartiles(values)
        print(f"{name:<22} {unit:<8} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {len(values):>6}")


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# ----------------------------------------------------------------------------
# the two run modes
# ----------------------------------------------------------------------------

def check_outputs(wl: Workload, work: Path, first: Round, slot: int,
                  write_reference: bool) -> tuple[int, int, list[str], dict | None]:
    """Probe and reference checks on a cleanly finished round.

    Returns (predict_text calls made, failed operations, problems, probe output)."""
    attempted, failed, problems, probe_out = 0, 0, [], None
    if wl.kind == "train":
        probe_out = run_probe(wl, work, work / "probe.txt", first.directory, 0)
        attempted = sum(len(v["printed"]) for v in probe_out.values())
    elif wl.kind == "predict":
        probe_out = run_probe(wl, work, work / "stream.txt", work, PROBE_WARMUP)
        attempted, failed, problems = check_probe(wl, first, probe_out)
    observed = observed_reference(wl, first, probe_out)
    path = reference_path(wl, slot)
    if write_reference:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(observed, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    if not path.exists():
        return attempted, failed + 1, problems + [f"no stored reference {path.relative_to(ROOT)}"], probe_out
    bad, ref_problems = check_against(wl, observed, json.loads(path.read_text(encoding="utf-8")))
    return attempted, failed + bad, problems + ref_problems, probe_out


def run_untraced(wl: Workload, work: Path, seconds: float, slot: int,
                 write_reference: bool) -> tuple[dict, int, int, list[str]]:
    setup_s, setup_samples = measure_setup(wl, work)
    rounds: list[Round] = []
    started = time.perf_counter()
    while True:
        rounds.append(run_round(wl, work, len(rounds), traced=False))
        elapsed = time.perf_counter() - started
        if rounds[-1].failures:
            break
        # past the minimum, stop where the run ends closest to the measuring time
        if len(rounds) >= MIN_ROUNDS and elapsed + elapsed / len(rounds) / 2 > seconds:
            break
    first = rounds[0]
    attempted = sum(r.attempted for r in rounds)
    problems = [p for r in rounds for p in r.failures]
    failed = len(problems)
    for r in rounds[1:]:
        if r.outputs != first.outputs:
            problems.append(f"round {rounds.index(r)} outputs differ from round 0")
            failed += 1
    latency = None
    if not problems:
        n, bad, problems, probe_out = check_outputs(wl, work, first, slot, write_reference)
        attempted, failed = attempted + n, failed + bad
        if wl.kind == "predict":
            latency = latency_summary(probe_out)
    walls = [r.wall_s for r in rounds]
    refs = [r.ref_s for r in rounds]
    lines = lines_per_round(wl, work)
    metrics = {
        "wall_ref_s": _metric(statistics.median(refs), "s"),
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mb": _metric(max(r.rss_mb for r in rounds), "MB"),
    }
    table = [
        ("wall_ref_s", "s", refs),
        ("wall_s", "s", walls),
        ("setup_s", "s", setup_samples),
        ("peak_rss_mb", "MB", [r.rss_mb for r in rounds]),
        ("lines_per_s", "lines/s", [lines / w for w in walls]),
        ("fail_ratio", "ratio", [failed / max(attempted, 1)]),
    ]
    if latency:
        table += [(name, "us", values) for name, values in latency["table"]]
    print_table(table)
    return metrics, attempted, failed, problems


def latency_summary(probe_out: dict) -> dict:
    pooled = [ns / 1000.0 for v in probe_out.values() for ns in v["latency_ns"]]
    p99 = statistics.quantiles(pooled, n=100)[98]
    table = [("line_p50_us", pooled), ("line_p99_us", [p99])]
    for family, v in probe_out.items():
        us = [ns / 1000.0 for ns in v["latency_ns"]]
        table.append((f"{family}_p50_us", [statistics.median(us)]))
    return {"p50": statistics.median(pooled), "p99": p99,
            "samples": len(pooled), "table": table}


def run_traced(wl: Workload, work: Path, slot: int) -> tuple[dict, int, int, list[str]]:
    plain = run_round(wl, work, 0, traced=False)
    traced = run_round(wl, work, 1, traced=True)
    attempted = plain.attempted + traced.attempted
    problems = plain.failures + traced.failures
    failed = len(problems)
    if not problems and traced.outputs != plain.outputs:
        differing = sorted(k for k in plain.outputs if traced.outputs.get(k) != plain.outputs[k])
        problems.append(f"traced outputs differ from untraced: {differing}")
        failed += 1
    latency = {"p50": 0.0, "p99": 0.0, "samples": 0}
    if not problems:
        n, bad, problems, probe_out = check_outputs(wl, work, plain, slot, False)
        attempted, failed = attempted + n, failed + bad
        if wl.kind == "predict":
            latency = latency_summary(probe_out)
    metrics, module_s, n_spans = tracer.aggregate(traced.dumps)
    self_total = sum(module_s.values())
    if self_total > traced.wall_s:
        problems.append(f"module self times sum to {self_total:.3f} s, "
                        f"more than the traced wall time {traced.wall_s:.3f} s")
        failed += 1
    extra = {
        "artifact.line_p50_us": latency["p50"],
        "artifact.line_p99_us": latency["p99"],
        "artifact.line_samples": latency["samples"],
        "trace.overhead_ratio": traced.ref_s / plain.ref_s,
        "trace.self_time_share": self_total / traced.wall_s,
        "trace.spans": n_spans,
    }
    for name, unit in EXTRA_LAYER_METRICS:
        metrics[name] = _metric(extra[name], unit)
    print(f"traced wall {traced.wall_s:.3f} s, untraced {plain.wall_s:.3f} s, "
          f"overhead x{extra['trace.overhead_ratio']:.3f}")
    print("module self seconds: " + ", ".join(f"{m} {s:.3f}" for m, s in module_s.items()))
    for name, value in metrics.items():
        shown = "missing" if value.get("missing") else f"{value['value']:.6g}"
        print(f"  {name:<36} {shown:>14} {value['unit']}")
    return metrics, attempted, failed, problems


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool,
                 write_reference: bool) -> int:
    slot = seed % SLOTS
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = scratch / f"{wl.name}-{os.getpid()}"
    work.mkdir()
    try:
        info = prepare(wl, slot, work)
        print("run record: " + json.dumps(run_record(wl, seed, slot, info), sort_keys=True))
        if trace:
            metrics, attempted, failed, problems = run_traced(wl, work, slot)
        else:
            metrics, attempted, failed, problems = run_untraced(
                wl, work, seconds, slot, write_reference)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    for needed in ("src/bullyguard/cli.py", "scripts/generate_corpus.py"):
        if not (ROOT / needed).is_file():
            print(f"error: {needed} not found under {ROOT}; run from a bullyguard checkout",
                  file=sys.stderr)
            return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        print(f"== {name}", flush=True)
        code = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace),
                            args.write_reference)
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
