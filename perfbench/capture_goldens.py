"""Capture the golden stdout and --emit manifests of the fixed-input commands.

    python3 perfbench/capture_goldens.py

Run once on the code whose outputs are the reference (the seed code for
the committed goldens); run.py then requires every later run to reproduce
them byte for byte.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

import run

sys.path.insert(0, str(run.SRC))
import workloads  # noqa: E402


def main() -> int:
    tmp = run.ROOT / ".perfbench_tmp" / "goldens"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    workloads.GOLDENS.mkdir(exist_ok=True)
    try:
        for commands in workloads.CLI_WORKLOADS.values():
            for cmd in commands:
                if not cmd.golden:
                    continue
                emit = tmp / "emit"
                shutil.rmtree(emit, ignore_errors=True)
                usage = run.run_process(
                    [sys.executable, "-m", "ffspectra", *cmd.args(tmp, emit)], tmp / "stdout", tmp / "stderr"
                )
                if usage.rc != cmd.expect_rc:
                    raise SystemExit(f"{cmd.name}: exit code {usage.rc}, expected {cmd.expect_rc}")
                shutil.copyfile(tmp / "stdout", workloads.GOLDENS / f"{cmd.name}.stdout")
                if cmd.emits:
                    (workloads.GOLDENS / f"{cmd.name}.emit").write_text(workloads.emit_manifest(emit))
                print(f"{cmd.name}: {usage.wall_s:.2f} s")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
