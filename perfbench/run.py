"""polarvol benchmark: seeded CLI workloads timed end to end and traced per layer.

    python3 perfbench/run.py --workload many_trials --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the repository root; the package is imported from ./src.  For each
workload run.py makes the ops from --seed, then runs passes over them
one at a time, each pass in a fresh child process (perfbench/child.py) that
calls the CLI in-process: a closed loop with one client, at --threads 2.
BLAS and OpenMP are pinned to one thread in the child, so --threads is the
only parallelism.

- Untraced passes run until --seconds is used up (at least three) and give
  the end-to-end metrics as medians over passes.
- With --trace 1, traced passes alternate with the untraced ones and give
  the per-layer metrics (medians over traced passes) and trace.overhead.
- One more pass at --threads 1 must reproduce every report.json byte for
  byte.  An op fails if its exit code or verdict is wrong, if its outputs
  miss the reference in workloads.py, or if its report.json differs between
  passes or between --threads 1 and 2.

The last line of stdout is one JSON object: correct, attempted (ops),
failed (ops) and metrics.  Everything the run writes goes under
.bench_build/perfbench/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import scipy

import tracer
import workloads

HERE = Path(__file__).resolve().parent
MIN_PASSES = 3  # untraced passes per run
MIN_TRACED_PASSES = 2
RUN_DEADLINE_S = 170.0  # a run must end within 180 s
THREADS = 2


class HarnessError(RuntimeError):
    """The benchmark itself could not run: no result is printed."""


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(root: Path, plan: dict, work: Path, tag: str, deadline: float) -> dict:
    """One pass in a fresh process; adds setup_s and peak_rss_mb to its result."""
    plan_path = work / f"{tag}.plan.json"
    result_path = work / f"{tag}.result.json"
    plan_path.write_text(json.dumps(plan))
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise HarnessError("run deadline reached")
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), str(plan_path), str(result_path)],
        stdout=subprocess.PIPE, env=child_env(root), cwd=root,
    )
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        line = proc.stdout.readline()
        setup = time.perf_counter() - t0
        proc.stdout.read()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        timer.cancel()
    if line != b"ready\n" or proc.returncode != 0:
        raise HarnessError(f"pass {tag} exited with {proc.returncode} (ready line {line!r})")
    result = json.loads(result_path.read_text())
    result["setup_s"] = setup
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # KiB on Linux
    return result


def outputs(out: Path) -> tuple[dict, str]:
    """An op's report.json and trials.csv ("" when it writes none)."""
    csv_path = out / "trials.csv"
    return json.loads((out / "report.json").read_text()), csv_path.read_text() if csv_path.exists() else ""


class Pass:
    """One child process: its inputs, settings and result."""

    def __init__(self, tag: str, ops: list, threads: int, trace: bool, work: Path):
        self.tag, self.ops, self.threads, self.trace = tag, ops, threads, trace
        self.dir = work / tag
        self.result: dict = {}

    def plan(self, warmup_path: Path) -> dict:
        configs = self.dir / "configs"
        configs.mkdir(parents=True)
        entries = []
        for op in self.ops:
            path = configs / f"{op['id']}.json"
            path.write_text(json.dumps(op["config"]))
            entries.append({"id": op["id"], "command": op["command"], "config_path": str(path),
                            "out_dir": str(self.dir / op["id"])})
        warmup = {"id": "warmup", "command": workloads.WARMUP["command"], "config_path": str(warmup_path),
                  "out_dir": str(self.dir / "warmup")}
        return {"threads": self.threads, "trace": self.trace, "warmup": warmup, "ops": entries}


def same_inputs(passes: list) -> dict:
    """(op id, config) -> [(pass, op index)] over every pass that ran those inputs."""
    groups: dict = {}
    for p in passes:
        for i, op in enumerate(p.ops):
            groups.setdefault((op["id"], json.dumps(op["config"], sort_keys=True)), []).append((p, i))
    return groups


def check_group(members: list) -> tuple[list, list]:
    """(failures, notes) of one op's inputs, over every pass that ran them."""
    errs, notes = [], []
    p, i = members[0]
    op = p.ops[i]
    codes = {p.result["ops"][i]["exit"] for p, i in members}
    shas = {t: {p.result["ops"][i]["sha256"] for p, i in members if p.threads == t} for t in (1, THREADS)}
    if None in shas[1] | shas[THREADS] or len(shas[THREADS]) > 1 or len(shas[1]) > 1:
        errs.append("report.json differs between runs of the same inputs")
    elif shas[1] and shas[1] != shas[THREADS]:
        errs.append(f"report.json differs between --threads 1 and --threads {THREADS}")
    try:
        report, csv_text = outputs(p.dir / op["id"])
        if codes != {0 if report["verdict"] == "PASS" else 1}:
            errs.append(f"exit codes {sorted(codes)} do not match verdict {report['verdict']!r}")
        found, notes = workloads.check(op, report, csv_text)
        errs += found
    except (OSError, ValueError, KeyError, TypeError) as e:
        errs.append(f"outputs unreadable: {type(e).__name__}: {e}")
    return errs, notes


def time_to_1pct_factor(groups: dict, failures: dict) -> tuple[float | None, int]:
    """Mean over the MC estimates of correct ops of (stderr/value/0.01)^2 (None
    without any), and the number of zero-hit estimates (value 0, stderr 0) left out."""
    factors = []
    zero_hit = 0
    for key, ((p, i), *_) in groups.items():
        if failures[key]:
            continue
        for v, se in workloads.estimates(p.ops[i], *outputs(p.dir / p.ops[i]["id"])):
            if v > 0:
                factors.append((se / v / 0.01) ** 2)
            else:
                zero_hit += 1
    return (sum(factors) / len(factors) if factors else None), zero_hit


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    work = root / ".bench_build" / "perfbench" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    warmup_path = work / "warmup.json"
    warmup_path.write_text(json.dumps(workloads.WARMUP["config"]))
    make_ops = workloads.WORKLOADS[name]

    def run(p: Pass) -> Pass:
        p.result = run_child(root, p.plan(warmup_path), work, p.tag, deadline)
        return p

    timed, traced = [], []
    start = time.monotonic()
    while True:
        k = len(timed)
        ops = make_ops(seed, k)
        timed.append(run(Pass(f"p{k}", ops, THREADS, False, work)))
        if trace:
            traced.append(run(Pass(f"t{k}", ops, THREADS, True, work)))
        elapsed = time.monotonic() - start
        per_iteration = elapsed / len(timed)
        enough = len(timed) >= (MIN_TRACED_PASSES if trace else MIN_PASSES)
        if enough and (elapsed + per_iteration > seconds or time.monotonic() + 2 * per_iteration > deadline):
            break
    serial = run(Pass("serial", timed[0].ops, 1, False, work))
    passes = timed + traced + [serial]

    groups = same_inputs(passes)
    checked = {key: check_group(members) for key, members in groups.items()}
    failures = {key: errs for key, (errs, _) in checked.items()}
    notes = {key: found for key, (_, found) in checked.items() if found}
    wall = statistics.median(p.result["wall_s"] for p in timed)
    factor, zero_hit = time_to_1pct_factor(groups, failures)
    metrics = {
        "setup_s": statistics.median(p.result["setup_s"] for p in passes),
        "wall_s": wall,
        # exact ops already meet 1%: without MC estimates this is wall_s
        "time_to_1pct_s": wall * factor if factor is not None else wall,
        # highest over the timed passes: where chunks overlap in two threads the
        # peak depends on timing, and the median flips between the two levels
        "peak_rss_mb": max(p.result["peak_rss_mb"] for p in timed),
    }
    if trace:
        layer = [tracer.summarize(t.result["spans"], t.result["wall_s"], t.result["report_bytes"]) for t in traced]
        metrics = {k: statistics.median(m[k] for m in layer) for k in layer[0]}
        metrics["trace.overhead"] = statistics.median(t.result["wall_s"] for t in traced) / wall - 1.0
    return {
        "failures": failures, "notes": notes, "metrics": metrics, "zero_hit": zero_hit,
        "passes": len(timed), "traced": len(traced),
        "walls": [p.result["wall_s"] for p in timed], "setups": [p.result["setup_s"] for p in passes],
        "serial_wall": serial.result["wall_s"],
    }


def environment(root: Path, seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "commit": git_commit(root), "seed": seed,
    }


def git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "polarvol" / "cli.py").is_file():
        print(f"error: {root} has no src/polarvol/cli.py; run from the repository root", file=sys.stderr)
        return 2
    declared = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    print("env " + json.dumps(environment(root, args.seed), sort_keys=True), flush=True)

    attempted = failed = 0
    metrics = {}
    for name in names:
        deadline = time.monotonic() + RUN_DEADLINE_S
        try:
            res = run_workload(root, name, args.seed, args.seconds, bool(args.trace), deadline)
        except HarnessError as e:
            print(f"error: {name}: {e}", file=sys.stderr)
            return 1
        n_ops = len(res["failures"])
        n_failed = sum(1 for errs in res["failures"].values() if errs)
        attempted += n_ops
        failed += n_failed
        traced = f" + {res['traced']} traced" if args.trace else ""
        print(f"{name}: seed {args.seed}, {n_ops} distinct ops, {res['passes']} passes{traced}"
              f" + 1 at --threads 1; walls {[round(w, 3) for w in res['walls']]}"
              f" (--threads 1: {res['serial_wall']:.3f})"
              f" setups {[round(w, 3) for w in res['setups']]}")
        for (op_id, _), errs in res["failures"].items():
            for e in errs:
                print(f"  FAILED {op_id}: {e}")
        for (op_id, _), found in res["notes"].items():
            for e in found:
                print(f"  NOTE {op_id}: {e}")
        if res["zero_hit"]:
            print(f"  NOTE {res['zero_hit']} MC estimates hit nothing (value 0, stderr 0); "
                  "they are left out of time_to_1pct_s")
        print(f"  {'error_rate':<44} {n_failed / n_ops:.4g} ({n_failed}/{n_ops} ops)")
        for key, value in res["metrics"].items():
            unit = units[key]
            print(f"  {key:<44} {value:.6g} {unit}")
            full = key if len(names) == 1 else f"{name}.{key}"
            metrics[full] = {"value": value, "unit": unit}
        sys.stdout.flush()
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
