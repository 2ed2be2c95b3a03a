"""One pass of a workload, in a fresh process: `child.py PLAN RESULT`.

Imports the CLI, runs the plan's warm-up op, prints `ready` on stdout (where
run.py's set-up clock stops), then calls
`polarvol.cli.main.main([...], standalone_mode=False)` for each op in order,
one at a time.  With `"trace": true` the spans of tracer.Tracer are recorded
around each op and inside the package.  The result file holds each op's
exit code, timestamps, printed line and the SHA-256 of its report.json.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import time
from pathlib import Path


def call_cli(cli, argv) -> tuple[int, str]:
    """Run one CLI command in-process; returns (exit code, printed text)."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            cli.main(argv, standalone_mode=False)
        code = 0
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else 1
    except Exception as e:  # a traceback is an op failure, not a harness failure
        code = -1
        buf.write(f"exception: {type(e).__name__}: {e}")
    return code, buf.getvalue().strip()


def argv_of(op: dict, threads: int) -> list:
    return [op["command"], "--config", op["config_path"], "--out", op["out_dir"], "--threads", str(threads)]


def main() -> int:
    plan = json.loads(Path(sys.argv[1]).read_text())
    from polarvol.cli import main as cli

    warm = plan["warmup"]
    code, text = call_cli(cli, argv_of(warm, 2))
    if code != 0:
        print(f"warm-up op failed ({code}): {text}", file=sys.stderr)
        return 1
    sys.stdout.write("ready\n")
    sys.stdout.flush()

    tracer = None
    if plan["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    threads = plan["threads"]
    ops = []
    t_first = time.perf_counter()
    for op in plan["ops"]:
        argv = argv_of(op, threads)
        t0 = time.perf_counter()
        if tracer is None:
            code, text = call_cli(cli, argv)
        else:
            code, text = tracer.run("cli.op", "cli", call_cli, (cli, argv), {})
        ops.append({"id": op["id"], "exit": code, "start": t0, "end": time.perf_counter(), "stdout": text})
    wall = time.perf_counter() - t_first

    report_bytes = 0
    for rec, op in zip(ops, plan["ops"]):
        out = Path(op["out_dir"])
        report = out / "report.json"
        rec["sha256"] = hashlib.sha256(report.read_bytes()).hexdigest() if report.exists() else None
        report_bytes += sum(f.stat().st_size for f in (report, out / "trials.csv") if f.exists())
    result = {"wall_s": wall, "ops": ops, "report_bytes": report_bytes}
    if tracer is not None:
        result["spans"] = tracer.spans
    Path(sys.argv[2]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
