"""The benchmark's workloads: seeded inputs, commands, table builders and output checks.

Three CLI workloads run one command at a time, each in its own process;
`small_sweep` drives the library in-process.  Every command's stdout (and
every `--emit` file) is compared byte for byte with goldens captured from
the seed code, except for commands on seeded random tables, whose verdicts
and witnesses are checked independently.

Import this module only after `src/` is on `sys.path`.
"""

from __future__ import annotations

import hashlib
import json
import math
import shlex
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ffspectra import CycInt, FnTable, delta_table, get_function, load_table, make_field, spectrum
from ffspectra.spectrum import exact_cell

GOLDENS = Path(__file__).resolve().parent / "goldens"


@dataclass(frozen=True)
class Command:
    """One CLI invocation.  `argv` may name `{inputs}` (seeded table files)
    and `{emit}` (a fresh per-command output directory)."""

    name: str
    argv: str
    expect_rc: int = 0

    def args(self, inputs: Path, emit: Path) -> list[str]:
        return shlex.split(self.argv.format(inputs=inputs, emit=emit))

    @property
    def golden(self) -> bool:
        """Fixed-input commands are compared with goldens; commands on
        seeded tables get independent checks instead."""
        return "{inputs}" not in self.argv

    @property
    def emits(self) -> bool:
        return "{emit}" in self.argv


# Seeded random tables, all over prime fields (ell = 1, modulus x):
# file name -> (p, d).
RANDOM_TABLES = {"random_p5_d5.tbl": (5, 5), "random_p2_d12.tbl": (2, 12)}

CLI_WORKLOADS = {
    # Exact spectrum engine: a full orbit scan, an early exit, the salem
    # report and 342 per-u CSV files written by --emit.
    "exact_certify": (
        Command("bent_exact_q3125", "test bent --catalog square --p 5 --ell 5 --exact"),
        Command("bent_exact_random_p5d5", "test bent --input {inputs}/random_p5_d5.tbl --exact", 1),
        Command("salem_thm1_q343", "salem verify-thm1 --catalog square --p 7 --ell 3"),
        Command("bent_exact_emit_q343", "test bent --catalog square --p 7 --ell 3 --exact --emit {emit}"),
    ),
    # Float butterfly plus the exact spot-check oracle, and the 2**20 cap.
    "fast_certify": (
        Command("bent_fast_q2197", "test bent --catalog square --p 13 --ell 3 --fast"),
        Command("bent_fast_2pow20", "test bent --catalog bool_quadratic --p 2 --d 20 --fast"),
    ),
    # Difference operators and perturbation sweeps; no spectral work.
    "shift_certify": (
        Command("decomp_q3125", "decomp verify --catalog square --p 5 --ell 5"),
        Command("decomp_random_p2d12", "decomp verify --input {inputs}/random_p2_d12.tbl --threads 2"),
        Command("decomp_basis_q49d2", "decomp verify --catalog bilinear --p 7 --ell 2 --d 2 --basis 8,14,50,392"),
        Command("mindist_q121", "mindist sweep --catalog square --p 11 --ell 2 --threads 2"),
    ),
}

WORKLOADS = (*CLI_WORKLOADS, "small_sweep")


# ---------------------------------------------------------------------------
# Seeded inputs.


def random_values(seed: int, p: int, ell: int, d: int, k: int = 0) -> np.ndarray:
    """Uniform table values for table k of the space (p, ell, d)."""
    rng = np.random.default_rng([seed, p, ell, d, k])
    return rng.integers(0, p**ell, size=p ** (ell * d), dtype=np.int64)


def write_inputs(workload: str, seed: int, directory: Path) -> None:
    """Write the seeded table files that the workload's commands read."""
    for name, (p, d) in RANDOM_TABLES.items():
        if any(name in c.argv for c in CLI_WORKLOADS.get(workload, ())):
            values = " ".join(map(str, random_values(seed, p, 1, d).tolist()))
            (directory / name).write_text(f"{p} 1 {d}\n0 1\n{values}\n", encoding="ascii")


def _flags(args: list[str]) -> dict[str, str]:
    return {
        tok[2:]: args[i + 1]
        for i, tok in enumerate(args[:-1])
        if tok.startswith("--") and not args[i + 1].startswith("--")
    }


def command_table(args: list[str]) -> FnTable:
    """The table a command builds: make_field plus get_function with its
    load-time checks, or load_table for an --input file."""
    flags = _flags(args)
    if "input" in flags:
        return load_table(flags["input"])
    params = make_field(int(flags["p"]), int(flags.get("ell", 1)))
    return get_function(flags["catalog"], params, d=int(flags["d"]) if "d" in flags else None)


def build_tables(workload: str, seed: int, inputs: Path) -> list[FnTable]:
    """Every input table of the workload, as a cold process would make it."""
    if workload == "small_sweep":
        sweep = SmallSweep(seed)
        return sweep.pn_tables + sweep.spectrum_tables
    return [command_table(c.args(inputs, inputs)) for c in CLI_WORKLOADS[workload]]


# ---------------------------------------------------------------------------
# CLI output checks.  Each returns a list of problems; empty means correct.


def emit_manifest(directory: Path) -> str:
    lines = []
    if directory.is_dir():
        for path in sorted(directory.iterdir()):
            lines.append(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}\n")
    return "".join(lines)


def check_command(cmd: Command, rc: int, stdout: bytes, emit: Path, inputs: Path) -> list[str]:
    problems = [] if rc == cmd.expect_rc else [f"exit code {rc}, expected {cmd.expect_rc}"]
    if cmd.golden:
        if stdout != (GOLDENS / f"{cmd.name}.stdout").read_bytes():
            problems.append("stdout differs from golden")
        if cmd.emits and emit_manifest(emit) != (GOLDENS / f"{cmd.name}.emit").read_text():
            problems.append("--emit files differ from golden")
        return problems
    try:
        out = json.loads(stdout)
    except ValueError:
        return problems + ["stdout is not JSON"]
    args = cmd.args(inputs, emit)
    table, source = command_table(args), Path(_flags(args)["input"]).name
    if args[:2] == ["test", "bent"]:
        problems += _check_bent_witness(out, table, source)
    elif args[:2] == ["decomp", "verify"]:
        problems += _check_decomp_pass(out, table, source)
    return problems


def _config(table: FnTable, source_name: str, mode: str) -> dict:
    params = table.params
    return {
        "p": params.p,
        "ell": params.ell,
        "modulus": list(params.modulus),
        "d": table.d,
        "source": {"input": source_name},
        "format": "json",
        "mode": mode,
    }


def _check_bent_witness(out: dict, table: FnTable, source: str) -> list[str]:
    """A random table is not bent; recompute its witness cell with the
    exact single-cell oracle and require it to break flatness."""
    witness = out.get("witness") or {}
    expected = {
        "command": "test bent",
        "config": _config(table, source, "exact"),
        "target_abs_sq": table.n_points,
        "verdict": "not_bent",
        "witness": witness,
    }
    if out != expected or set(witness) != {"u_index", "m_index", "abs_sq_int", "abs_sq_float"}:
        return ["report fields differ from the expected not-bent report"]
    z = exact_cell(table, witness["u_index"], witness["m_index"]).abs_sq()
    problems = []
    if z.as_integer() != witness["abs_sq_int"]:
        problems.append("witness abs_sq_int differs from the recomputed cell")
    if not math.isclose(z.to_complex().real, witness["abs_sq_float"], rel_tol=1e-9, abs_tol=1e-9):
        problems.append("witness abs_sq_float differs from the recomputed cell")
    if z == CycInt.integer(table.params.p, table.n_points):
        problems.append("witness cell is flat")
    return problems


def _check_decomp_pass(out: dict, table: FnTable, source: str) -> list[str]:
    """The reconstruction identity holds for every table."""
    params = table.params
    expected = {
        "command": "decomp verify",
        "config": _config(table, source, "exact"),
        "field": {"p": params.p, "ell": params.ell, "modulus": list(params.modulus)},
        "d": table.d,
        "basis": [params.p**j for j in range(table.d * params.ell)],
        "shifts_checked": table.n_points - 1,
        "pass": True,
        "failing_a": None,
    }
    return [] if out == expected else ["report differs from the expected pass report"]


def check_trace_counts(cmd: Command, stdout: bytes, layers: dict[str, float]) -> list[str]:
    """Traced counts must equal values derived independently of the trace."""
    args = cmd.args(Path("."), Path("."))
    flags = _flags(args)
    q = int(flags.get("p", 0)) ** int(flags.get("ell", 1))
    problems = []

    def expect(metric: str, value: int) -> None:
        if layers.get(metric, 0) != value:
            problems.append(f"{metric} = {layers.get(metric, 0)}, expected {value}")

    if "--fast" in args:
        expect("spectrum.exact_cell_calls", json.loads(stdout)["spot_checks"]["sampled"])
        expect("spectrum.walsh_fast_all_calls", q - 1)
    elif args[:2] == ["decomp", "verify"]:
        out = json.loads(stdout)
        expect("decomp.shifts_checked", (out["field"]["p"] ** out["field"]["ell"]) ** out["d"] - 1)
    elif args[:2] == ["mindist", "sweep"]:
        expect("mindist.pairs_tested", q * (q - 1))
    return problems


# ---------------------------------------------------------------------------
# small_sweep: the library in-process.


def _builtin_spaces(max_points: int, odd_only: bool) -> list[tuple[int, int, int]]:
    """(p, ell, d) for every space with a built-in modulus and q**d <= max_points."""
    spaces = []
    for p in (2, 3, 5, 7, 11, 13):
        if odd_only and p == 2:
            continue
        for ell in range(1, 7):
            d = 1
            while (p**ell) ** d <= max_points:
                spaces.append((p, ell, d))
                d += 1
    return spaces


class SmallSweep:
    """PN/bent crosschecks on 50 seeded random tables plus the catalog's
    planar entry for every odd-p space with q**d <= 625, and exact plus
    float spectra for every u of one seeded table per space with
    q**d <= 243."""

    TABLES_PER_SPACE = 50

    def __init__(self, seed: int) -> None:
        self.pn_tables: list[FnTable] = []
        self.planar: list[bool] = []
        for p, ell, d in _builtin_spaces(625, odd_only=True):
            params = make_field(p, ell)
            for k in range(self.TABLES_PER_SPACE):
                self.pn_tables.append(FnTable(params, d, random_values(seed, p, ell, d, k)))
                self.planar.append(False)
            planar_entry = {1: "square", 2: "bilinear"}.get(d)
            if planar_entry:
                self.pn_tables.append(get_function(planar_entry, params, d=d))
                self.planar.append(True)
        self.spectrum_tables = [
            FnTable(make_field(p, ell), d, random_values(seed, p, ell, d, self.TABLES_PER_SPACE))
            for p, ell, d in _builtin_spaces(243, odd_only=False)
        ]

    @property
    def operations(self) -> int:
        return len(self.pn_tables) + sum(f.params.q - 1 for f in self.spectrum_tables)

    def run(self) -> tuple[list, list]:
        """The timed part: every crosscheck, every (table, u) spectrum pair."""
        # Calls go through the module so that tracing wrappers see them.
        cross = [spectrum.crosscheck_pn_bent(f) for f in self.pn_tables]
        spectra = []
        for f in self.spectrum_tables:
            for u_index in range(1, f.params.q):
                u = f.params.from_index(u_index)
                spectra.append((spectrum.spectrum_report(f, u), spectrum.walsh_fast_all(f, u)))
        return cross, spectra

    def trace_problems(self, layers: dict[str, float]) -> list[str]:
        """Traced counts must equal the numbers of calls the sweep makes."""
        pairs = sum(f.params.q - 1 for f in self.spectrum_tables)
        expected = {
            "spectrum.crosscheck_pn_bent_calls": len(self.pn_tables),
            "spectrum.spectrum_report_calls": pairs,
            "spectrum.walsh_fast_all_calls": pairs,
        }
        return [f"{k} = {layers.get(k, 0)}, expected {v}" for k, v in expected.items() if layers.get(k, 0) != v]

    def failures(self, cross: list, spectra: list) -> int:
        """Operations whose result fails an independent check."""
        failed = 0
        for f, planar, report in zip(self.pn_tables, self.planar, cross):
            failed += bool(_crosscheck_problems(f, planar, report))
        for report, mags in spectra:
            exact = np.array([r.magnitude for r in report.rows])
            in_order = all(r.m_index == m for m, r in enumerate(report.rows))
            close = np.all(np.abs(mags - exact) <= 1e-9 * np.maximum(exact, 1.0))
            failed += not (in_order and close)
        return failed


def _crosscheck_problems(f: FnTable, planar: bool, report) -> list[str]:
    problems = []
    if not report.agree:
        problems.append("PN and bent verdicts disagree")
    if planar and not (report.pn.is_pn and report.bent.is_bent):
        problems.append("planar catalog entry not certified")
    w = report.pn.witness
    if w is not None:
        counts = np.bincount(delta_table(f, w.a).values, minlength=f.params.q)
        if counts[w.value.index] != w.count or w.count <= f.n_points // f.params.q:
            problems.append("PN witness count does not recompute")
    b = report.bent.witness
    if b is not None:
        z = exact_cell(f, b.u.index, b.m.index).abs_sq()
        if z != b.abs_sq or z == CycInt.integer(f.params.p, f.n_points):
            problems.append("bent witness cell does not recompute")
    return problems
