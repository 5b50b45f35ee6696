"""ffspectra benchmark: one workload per invocation, outputs checked, metrics printed.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from its
`src/` directory only.  Workloads are listed in BENCHMARK.json and defined
in workloads.py.

--trace 0 prints the end-to-end metrics: wall_s and cpu_s (medians over the
passes made in --seconds, at least one), peak_rss_mb (the largest
ru_maxrss of one command's process, as os.wait4 reports it) and setup_s
(median over cold processes that import ffspectra and build every input
table).  --trace 1 makes one untraced and one traced pass and prints the
per-layer metrics of the traced pass plus trace.overhead_s.

CLI commands run one at a time, each in its own process, with
FFSPECTRA_THREADS unset so that only a command's own --threads sets its
worker count.  A command fails when its exit code is wrong or its output
check fails; `attempted` and `failed` count commands (small_sweep: library
operations), and their ratio is the error rate.

The last stdout line is the result JSON; the line before it is a detail
record with per-command numbers and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
SETUP_RUNS = 3
COMMAND_TIMEOUT_S = 150.0

# The ROADMAP's seed baseline for the commands it shares with the workloads:
# one run each, wall_time_s as the command itself prints it (process start
# and imports excluded), and the process's ru_maxrss.
ROADMAP_BASELINE = {
    "bent_exact_q3125": {"wall_time_s": 12.6},
    "bent_fast_q2197": {"wall_time_s": 18.8},
    "bent_fast_2pow20": {"wall_time_s": 4.1, "peak_rss_mb": 680},
    "decomp_q3125": {"wall_time_s": 8.9, "peak_rss_mb": 233},
    "salem_thm1_q343": {"wall_time_s": 3.0, "peak_rss_mb": 95},
}


@dataclass
class Pass:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    commands: list[dict] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Usage:
    rc: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("FFSPECTRA_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_process(argv: list[str], stdout: Path, stderr: Path) -> Usage:
    """Run to completion; wall from spawn to reap, CPU and peak RSS from
    os.wait4 (Linux folds reaped pool workers into the child's usage)."""
    start = time.perf_counter()
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        proc = subprocess.Popen(
            argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT, start_new_session=True
        )

    def kill_group() -> None:  # the command and any pool workers it started
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    timer = threading.Timer(COMMAND_TIMEOUT_S, kill_group)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        kill_group()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Usage(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


def setup_times(workload: str, seed: int, tmp: Path) -> list[float]:
    """Wall time of cold processes that import ffspectra and build every
    input table of the workload."""
    times = []
    for _ in range(SETUP_RUNS):
        argv = [sys.executable, str(HERE / "child.py"), "setup", workload, str(seed), str(tmp / "inputs")]
        usage = run_process(argv, tmp / "setup.out", tmp / "setup.err")
        if usage.rc != 0:
            raise RuntimeError(f"setup probe failed: {(tmp / 'setup.err').read_text()[-2000:]}")
        times.append(usage.wall_s)
    return times


def cli_pass(name: str, tmp: Path, traced: bool) -> Pass:
    import tracing
    import workloads

    result = Pass()
    summaries = []
    inputs = tmp / "inputs"
    for cmd in workloads.CLI_WORKLOADS[name]:
        emit = tmp / "emit"
        shutil.rmtree(emit, ignore_errors=True)
        args = cmd.args(inputs, emit)
        trace_file = tmp / "trace.json"
        trace_file.unlink(missing_ok=True)
        if traced:
            argv = [sys.executable, str(HERE / "child.py"), "trace", str(trace_file), *args]
        else:
            argv = [sys.executable, "-m", "ffspectra", *args]
        usage = run_process(argv, tmp / "stdout", tmp / "stderr")
        stdout = (tmp / "stdout").read_bytes()
        problems = workloads.check_command(cmd, usage.rc, stdout, emit, inputs)
        if traced:
            layers = json.loads(trace_file.read_text()) if trace_file.exists() else {}
            emitted = sum(p.stat().st_size for p in emit.iterdir()) if emit.is_dir() else 0
            layers["cli.bytes_written"] = len(stdout) + emitted
            if not problems:
                problems += workloads.check_trace_counts(cmd, stdout, layers)
            summaries.append(layers)
        result.wall_s += usage.wall_s
        result.cpu_s += usage.cpu_s
        result.peak_rss_mb = max(result.peak_rss_mb, usage.peak_rss_mb)
        result.attempted += 1
        result.failed += bool(problems)
        result.commands.append(
            {
                "name": cmd.name,
                "argv": cmd.argv,
                "rc": usage.rc,
                "wall_s": usage.wall_s,
                "cpu_s": usage.cpu_s,
                "peak_rss_mb": usage.peak_rss_mb,
                "problems": problems,
                "stderr_tail": (tmp / "stderr").read_text(errors="replace")[-400:] if problems else "",
            }
        )
    shutil.rmtree(tmp / "emit", ignore_errors=True)
    if traced:
        result.layers = tracing.combine(summaries)
    return result


def sweep_pass(sweep, traced: bool) -> Pass:
    import tracing

    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer) if traced else None
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    try:
        cross, spectra = sweep.run()
    finally:
        wall = time.perf_counter() - start
        usage1 = resource.getrusage(resource.RUSAGE_SELF)
        if uninstall is not None:
            uninstall()
    result = Pass(
        wall_s=wall,
        cpu_s=(usage1.ru_utime - usage0.ru_utime) + (usage1.ru_stime - usage0.ru_stime),
        peak_rss_mb=usage1.ru_maxrss / 1024,
        attempted=sweep.operations,
        failed=sweep.failures(cross, spectra),
    )
    if traced:
        result.layers = tracing.combine([tracer.summary()])
        result.failed += len(sweep.trace_problems(result.layers))
    return result


def environment(seed: int) -> dict:
    import numpy

    import ffspectra

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}_{kind.lower()}"] = size
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "ffspectra": ffspectra.__version__,
        "cpu_caches": caches,
        "FFSPECTRA_THREADS": "unset in every child",
    }


def per_command(passes: list[Pass]) -> list[dict]:
    """Median wall and CPU, largest RSS, every exit code and problem, per command."""
    out = []
    for i, first in enumerate(passes[0].commands):
        runs = [p.commands[i] for p in passes]
        out.append(
            {
                "name": first["name"],
                "argv": first["argv"],
                "rc": [r["rc"] for r in runs],
                "wall_s": statistics.median(r["wall_s"] for r in runs),
                "cpu_s": statistics.median(r["cpu_s"] for r in runs),
                "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
                "problems": sorted({pr for r in runs for pr in r["problems"]}),
                "stderr_tail": next((r["stderr_tail"] for r in runs if r["stderr_tail"]), ""),
                "roadmap_baseline": ROADMAP_BASELINE.get(first["name"]),
            }
        )
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ffspectra" / "__init__.py").is_file():
        print(f"error: no ffspectra sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
    tmp = ROOT / ".perfbench_tmp" / f"run-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    (tmp / "inputs").mkdir(parents=True)
    try:
        workloads.write_inputs(args.workload, args.seed, tmp / "inputs")
        setups = [] if args.trace else setup_times(args.workload, args.seed, tmp)
        if args.workload == "small_sweep":
            sweep = workloads.SmallSweep(args.seed)
            sweep.run()  # warm the package's caches; not timed

            def one_pass(traced: bool) -> Pass:
                return sweep_pass(sweep, traced)
        else:

            def one_pass(traced: bool) -> Pass:
                return cli_pass(args.workload, tmp, traced)

        if args.trace:
            passes = [one_pass(False), one_pass(True)]
        else:
            passes = []
            start = time.perf_counter()
            while not passes or time.perf_counter() - start < args.seconds:
                passes.append(one_pass(False))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if args.trace:
        values = dict(passes[1].layers)
        values["trace.overhead_s"] = passes[1].wall_s - passes[0].wall_s
        wanted = spec["per_layer"]
        values = {m["name"]: values.get(m["name"], 0) for m in wanted}
    else:
        values = {
            "wall_s": statistics.median(p.wall_s for p in passes),
            "cpu_s": statistics.median(p.cpu_s for p in passes),
            "peak_rss_mb": statistics.median(p.peak_rss_mb for p in passes),
            "setup_s": statistics.median(setups),
        }
        wanted = spec["end_to_end"]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(args.seed),
        "passes": len(passes),
        "pass_wall_s": [p.wall_s for p in passes],
        "setup_s_runs": setups,
        "commands": per_command(passes) if passes[0].commands else [],
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
