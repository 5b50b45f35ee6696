"""Byte-for-byte replay of canonical CLI output.

Each case runs one command with `--emit` into a fresh directory and
compares the exit code, stdout and every emitted file with the copies
under tests/goldens/<case>/.  The goldens were captured before the exact
|S|^2 engine and the CLI output path were refactored; regenerate them only
for an intended output change, with

    PYTHONPATH=src python tests/test_goldens.py
"""

from __future__ import annotations

import contextlib
import io
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from ffspectra.cli import main

GOLDENS = Path(__file__).parent / "goldens"

# Every case has q**d <= 343; --emit <dir> is appended to each.
CASES = {
    "pn_square_p5": ["test", "pn", "--catalog", "square", "--p", "5"],
    "pn_power_p5_not_pn": ["test", "pn", "--catalog", "power", "--p", "5", "--params", "e=3"],
    "bent_exact_square_q9": ["test", "bent", "--catalog", "square", "--p", "3", "--ell", "2", "--exact"],
    "bent_exact_bool_quadratic_d4": ["test", "bent", "--catalog", "bool_quadratic", "--p", "2", "--d", "4", "--exact"],
    "bent_exact_affine_p7_not_bent": ["test", "bent", "--catalog", "affine", "--p", "7", "--exact"],
    "bent_exact_random_q25_not_bent": ["test", "bent", "--catalog", "random", "--p", "5", "--d", "2", "--seed", "3", "--exact"],
    "bent_exact_power_e4_q27": ["test", "bent", "--catalog", "power", "--p", "3", "--ell", "3", "--params", "e=4", "--exact"],
    "bent_exact_power_e5_q27_not_bent": ["test", "bent", "--catalog", "power", "--p", "3", "--ell", "3", "--params", "e=5", "--exact"],
    "bent_fast_square_p7": ["test", "bent", "--catalog", "square", "--p", "7", "--fast"],
    "bent_fast_square_q125": ["test", "bent", "--catalog", "square", "--p", "5", "--ell", "3", "--fast"],
    "bent_fast_affine_p5_not_bent": ["test", "bent", "--catalog", "affine", "--p", "5", "--fast"],
    "bent_fast_random_q49_not_bent": ["test", "bent", "--catalog", "random", "--p", "7", "--d", "2", "--seed", "5", "--fast"],
    "bent_fast_bool_quadratic_d8": ["test", "bent", "--catalog", "bool_quadratic", "--p", "2", "--d", "8", "--fast"],
    "bent_fast_bool_random_d6_not_bent": ["test", "bent", "--catalog", "random", "--p", "2", "--d", "6", "--seed", "2", "--fast"],
    "crosscheck_square_p5": ["crosscheck", "--catalog", "square", "--p", "5"],
    "crosscheck_random_q9": ["crosscheck", "--catalog", "random", "--p", "3", "--d", "2", "--seed", "4"],
    "salem_json_square_p5": ["salem", "--catalog", "square", "--p", "5"],
    "salem_csv_square_q9": ["salem", "--catalog", "square", "--p", "3", "--ell", "2", "--format", "csv"],
    "salem_csv_random_p5": ["salem", "report", "--catalog", "random", "--p", "5", "--seed", "3", "--format", "csv"],
    "salem_json_bool_random_d3": ["salem", "--catalog", "random", "--p", "2", "--d", "3", "--seed", "1"],
    "salem_thm1_square_p7": ["salem", "verify-thm1", "--catalog", "square", "--p", "7"],
    "salem_thm1_bool_quadratic_d4_csv": ["salem", "verify-thm1", "--catalog", "bool_quadratic", "--p", "2", "--d", "4", "--format", "csv"],
    "salem_thm1_affine_p5_hypothesis_failed": ["salem", "verify-thm1", "--catalog", "affine", "--p", "5"],
    "decomp_square_p5": ["decomp", "verify", "--catalog", "square", "--p", "5"],
    "decomp_bilinear_q9_basis": ["decomp", "verify", "--catalog", "bilinear", "--p", "3", "--basis", "1,4"],
    "mindist_sweep_square_p7": ["mindist", "sweep", "--catalog", "square", "--p", "7"],
    "mindist_sweep_affine_p5_not_planar_base": ["mindist", "sweep", "--catalog", "affine", "--p", "5"],
    "catalog_list": ["catalog", "list"],
    "field_info_q27": ["field", "info", "--p", "3", "--ell", "3"],
}


def _files(directory: Path) -> dict[str, bytes]:
    if not directory.exists():
        return {}
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def _run(argv: list[str], emit: Path) -> tuple[int, str, dict[str, bytes]]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([*argv, "--emit", str(emit)])
    return code, out.getvalue(), _files(emit)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    golden = GOLDENS / name
    code, stdout, files = _run(CASES[name], tmp_path / "emit")
    assert code == int((golden / "exit_code").read_text())
    assert stdout.encode("ascii") == (golden / "stdout").read_bytes()
    assert files == _files(golden / "emit")


def capture() -> None:
    """Rewrite tests/goldens from the current sources."""
    shutil.rmtree(GOLDENS, ignore_errors=True)
    for name, argv in sorted(CASES.items()):
        golden = GOLDENS / name
        golden.mkdir(parents=True)
        with tempfile.TemporaryDirectory() as tmp:
            code, stdout, files = _run(argv, Path(tmp) / "emit")
        (golden / "exit_code").write_text(f"{code}\n")
        (golden / "stdout").write_bytes(stdout.encode("ascii"))
        for fname, data in files.items():
            (golden / "emit").mkdir(exist_ok=True)
            (golden / "emit" / fname).write_bytes(data)
        print(f"{name}: exit {code}, {len(files)} emitted file(s)", file=sys.stderr)


if __name__ == "__main__":
    capture()
