"""Child processes started by run.py.

  python3 perfbench/child.py setup <workload> <seed> <inputs-dir>
      import ffspectra and build every input table of the workload, then exit.
  python3 perfbench/child.py trace <summary.json> <ffspectra CLI args...>
      run one CLI command with tracing installed and write the trace summary.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


def main(argv: list[str]) -> int:
    if argv[0] == "setup":
        import workloads

        workloads.build_tables(argv[1], int(argv[2]), Path(argv[3]))
        return 0
    if argv[0] == "trace":
        import tracing
        from ffspectra import cli

        tracer = tracing.Tracer()
        tracing.install(tracer)
        code = cli.main(argv[2:])
        sys.stdout.flush()
        Path(argv[1]).write_text(json.dumps(tracer.summary()), encoding="ascii")
        return code
    raise SystemExit(f"unknown child mode {argv[0]!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
