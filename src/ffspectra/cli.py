"""Batch command-line front end.

Commands
--------
  test pn            PN verdict with witness
  test bent          bent verdict with witness (exact by default)
  crosscheck         independent PN and bent verdicts must agree (odd p)
  salem [report]     per-frequency spectrum and Salem constant of a graph
  salem verify-thm1  flat-graph certification for a bent function
  decomp verify      difference operators rebuilt from the basis shifts
  mindist sweep      all distance-1 neighbors of a planar f tested
  mindist pairwise   Hamming distance matrix of table files
  catalog list       built-in function families
  field info         resolved field parameters

Exit codes: 0 all checks pass; 1 a mathematical check failed (the report
carries the witness); 2 usage or input error.

Reports are canonical: JSON with sorted keys and two-space indent, CSV
with LF line endings, and no timing or thread-count dependent content
(wall time goes to the diagnostic stream, wall_time fields are null), so
identical configurations produce byte-identical files at any --threads.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Sequence

from . import _parallel
from .catalog import get_function, list_entries
from .decomp import verify_decomposition
from .errors import (
    FFSpectraError,
    HypothesisFailed,
    NotPlanarBase,
    NotPlanarEntry,
    PropertyMismatch,
)
from .field import FieldParams, make_field
from .funcs import FnTable, PnWitness, is_pn, load_table
from .mindist import pairwise_min_distance, perturbation_sweep
from .salem import SalemReport, graph_of, salem_report, verify_theorem1
from .space import PointVector, SpaceBasis, standard_basis
from .spectrum import (
    BentWitness,
    FastBentWitness,
    crosscheck_pn_bent,
    is_bent_exact,
    is_bent_fast,
    spectrum_report,
)


class UsageError(Exception):
    """Bad flag combination or missing input; maps to exit code 2."""


# ---------------------------------------------------------------------------
# Canonical serialization.


def canonical_json(obj) -> str:
    """Sorted keys, two-space indent, trailing newline; ASCII only."""
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(text)


def _emit(args, name: str, text: str) -> None:
    if args.emit is not None:
        _write_text(Path(args.emit) / name, text)


def _output(args, name: str, payload: dict) -> None:
    """Print the canonical JSON payload and write the same bytes to --emit."""
    text = canonical_json(payload)
    sys.stdout.write(text)
    _emit(args, name, text)


# ---------------------------------------------------------------------------
# Config resolution.


def _parse_params_arg(text: str | None) -> dict[str, int]:
    if not text:
        return {}
    out: dict[str, int] = {}
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if "=" not in piece:
            raise UsageError(f"--params entries are k=v, got {piece!r}")
        key, _, value = piece.partition("=")
        try:
            out[key.strip()] = int(value)
        except ValueError:
            raise UsageError(f"--params value for {key!r} is not an integer") from None
    return out


def _parse_modulus(text: str | None) -> tuple[int, ...] | None:
    if text is None:
        return None
    try:
        return tuple(int(c) for c in text.replace(",", " ").split())
    except ValueError:
        raise UsageError("--modulus takes comma-separated integer coefficients") from None


def _resolve_field(args) -> FieldParams:
    if args.p is None:
        raise UsageError("--p is required (unless the field comes from --input)")
    return make_field(args.p, args.ell if args.ell is not None else 1, _parse_modulus(args.modulus))


def _resolve_function(args) -> tuple[FnTable, dict]:
    """Build the requested table and a serializable source descriptor."""
    if args.input is not None and args.catalog is not None:
        raise UsageError("--catalog and --input are mutually exclusive")
    if args.input is not None:
        for flag in ("p", "ell", "modulus", "d"):
            if getattr(args, flag) is not None:
                raise UsageError(f"--{flag} conflicts with --input; the table file carries the field")
        f = load_table(args.input)
        return f, {"input": Path(args.input).name}
    if args.catalog is None:
        raise UsageError("one of --catalog or --input is required")
    params = _resolve_field(args)
    kv = _parse_params_arg(args.params)
    if args.seed is not None:
        kv.setdefault("seed", args.seed)
    f = get_function(args.catalog, params, d=args.d, **kv)
    return f, {"catalog": args.catalog, "params": kv}


def _mode(args) -> str:
    return "fast" if getattr(args, "fast", False) else "exact"


def _field_json(params: FieldParams) -> dict:
    return {"p": params.p, "ell": params.ell, "modulus": list(params.modulus)}


def _run_config(f: FnTable, source: dict, args) -> dict:
    """Everything that determines a run's output, in echoable form."""
    return {
        **_field_json(f.params),
        "d": f.d,
        "source": source,
        "format": getattr(args, "format", "json"),
        "mode": _mode(args),
    }


# ---------------------------------------------------------------------------
# Witness serialization.


def _pn_witness_json(w: PnWitness | None) -> dict | None:
    if w is None:
        return None
    return {"a_index": w.a.index, "value_index": w.value.index, "count": w.count}


def _bent_witness_json(w: BentWitness | FastBentWitness | None) -> dict | None:
    if w is None:
        return None
    return {
        "u_index": w.u.index,
        "m_index": w.m.index,
        "abs_sq_int": w.abs_sq_int,
        "abs_sq_float": w.abs_sq_float,
    }


def _coords_str(params: FieldParams, d: int, point_index: int) -> str:
    point = PointVector.from_index(params, d, point_index)
    return ";".join(str(c.index) for c in point.coords)


# ---------------------------------------------------------------------------
# CSV renderers.


def _float_repr(x: float) -> str:
    return repr(float(x))


def _spectrum_csv(params: FieldParams, d: int, rows) -> str:
    lines = ["m_index,m_coords,abs_sq_exact,magnitude_float"]
    for r in rows:
        exact = "" if r.abs_sq_int is None else str(r.abs_sq_int)
        lines.append(
            f"{r.m_index},{_coords_str(params, d, r.m_index)},{exact},{_float_repr(r.magnitude)}"
        )
    return "\n".join(lines) + "\n"


def _salem_csv(report: SalemReport) -> str:
    lines = ["m_index,m_coords,case_tag,abs_sq_exact,magnitude_float,bound_ratio"]
    for r in report.rows:
        exact = "" if r.abs_sq_int is None else str(r.abs_sq_int)
        lines.append(
            f"{r.m_index},{_coords_str(report.params, report.d, r.m_index)},"
            f"{r.case_tag},{exact},{_float_repr(r.magnitude)},{_float_repr(r.bound_ratio)}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Command handlers.


def _cmd_test_pn(args) -> int:
    f, source = _resolve_function(args)
    verdict = is_pn(f, threads=args.threads)
    report = {
        "command": "test pn",
        "config": _run_config(f, source, args),
        "verdict": verdict.verdict,
        "witness": _pn_witness_json(verdict.witness),
    }
    _output(args, "pn.json", report)
    return 0 if verdict.is_pn else 1


def _cmd_test_bent(args) -> int:
    f, source = _resolve_function(args)
    report = {
        "command": "test bent",
        "config": _run_config(f, source, args),
        "target_abs_sq": f.n_points,
    }
    if _mode(args) == "fast":
        fast = is_bent_fast(f)
        report["spot_checks"] = {"sampled": fast.sampled, "mismatches": fast.mismatches}
        verdict, ok = fast, fast.certified
    else:
        verdict = is_bent_exact(f, threads=args.threads)
        ok = verdict.is_bent
        if args.emit is not None:
            for u_index in range(1, f.params.q):
                rep = spectrum_report(f, f.params.from_index(u_index))
                _emit(args, f"spectrum_u{u_index}.csv", _spectrum_csv(f.params, f.d, rep.rows))
    report["verdict"] = verdict.verdict
    report["witness"] = _bent_witness_json(verdict.witness)
    _output(args, "bent.json", report)
    return 0 if ok else 1


def _cmd_crosscheck(args) -> int:
    f, source = _resolve_function(args)
    result = crosscheck_pn_bent(f, threads=args.threads)
    report = {
        "command": "crosscheck",
        "config": _run_config(f, source, args),
        "pn": result.pn.verdict,
        "bent": result.bent.verdict,
        "agree": result.agree,
        "pn_witness": _pn_witness_json(result.pn.witness),
        "bent_witness": _bent_witness_json(result.bent.witness),
    }
    _output(args, "crosscheck.json", report)
    return 0 if result.agree else 1


def _salem_output(args, command: str, config: dict, report: SalemReport) -> None:
    """Print the JSON or CSV report per --format; --emit gets both."""
    payload = {
        "command": command,
        "config": config,
        "q": report.params.q,
        "d": report.d,
        "cardinality": report.cardinality,
        "salem_constant": report.salem_constant,
        "argmax_m": [c.index for c in report.argmax_m.coords],
        "max_abs_sq": report.max_abs_sq_int,
        "theorem1_pass": report.theorem1_pass,
        "wall_time": None,
    }
    json_text = canonical_json(payload)
    csv_text = _salem_csv(report)
    sys.stdout.write(csv_text if args.format == "csv" else json_text)
    _emit(args, "salem.json", json_text)
    _emit(args, "salem.csv", csv_text)


def _cmd_salem_report(args) -> int:
    f, source = _resolve_function(args)
    report = salem_report(graph_of(f))
    _salem_output(args, "salem report", _run_config(f, source, args), report)
    return 0


def _cmd_salem_verify(args) -> int:
    f, source = _resolve_function(args)
    config = _run_config(f, source, args)
    try:
        report = verify_theorem1(f, threads=args.threads)
    except HypothesisFailed as exc:
        payload = {
            "command": "salem verify-thm1",
            "config": config,
            "error": "hypothesis_failed",
            "detail": str(exc),
            "witness": _bent_witness_json(getattr(exc, "witness", None)),
        }
        _output(args, "salem.json", payload)
        return 1
    _salem_output(args, "salem verify-thm1", config, report)
    return 0 if report.theorem1_pass else 1


def _parse_basis(args, f: FnTable) -> tuple[SpaceBasis, list[int]]:
    params, d = f.params, f.d
    if args.basis is None or args.basis == "standard":
        basis = standard_basis(params, d)
    else:
        try:
            indices = [int(c) for c in args.basis.replace(",", " ").split()]
        except ValueError:
            raise UsageError("--basis is 'standard' or comma-separated point indices") from None
        vectors = tuple(PointVector.from_index(params, d, i) for i in indices)
        basis = SpaceBasis(params, d, vectors)
    return basis, [v.index for v in basis.vectors]


def _cmd_decomp_verify(args) -> int:
    f, source = _resolve_function(args)
    basis, basis_indices = _parse_basis(args, f)
    verdict = verify_decomposition(f, basis)
    report = {
        "command": "decomp verify",
        "config": _run_config(f, source, args),
        "field": _field_json(f.params),
        "d": f.d,
        "basis": basis_indices,
        "shifts_checked": verdict.shifts_checked,
        "pass": verdict.passed,
        "failing_a": None if verdict.failing_a is None else verdict.failing_a.index,
    }
    _output(args, "decomp.json", report)
    return 0 if verdict.passed else 1


def _source_label(source: dict) -> str:
    if "catalog" in source:
        suffix = ",".join(f"{k}={v}" for k, v in sorted(source["params"].items()))
        return f"catalog:{source['catalog']}" + (f"[{suffix}]" if suffix else "")
    return f"input:{source['input']}"


def _cmd_mindist_sweep(args) -> int:
    f, source = _resolve_function(args)
    config = _run_config(f, source, args)
    try:
        report = perturbation_sweep(f, threads=args.threads)
    except NotPlanarBase as exc:
        payload = {
            "command": "mindist sweep",
            "config": config,
            "error": "not_planar_base",
            "detail": str(exc),
            "witness": _pn_witness_json(getattr(exc, "witness", None)),
        }
        _output(args, "sweep.json", payload)
        return 1
    samples = [
        {
            "w_index": e.w_index,
            "v_index": e.v_index,
            "witness": _pn_witness_json(e.witness),
        }
        for e in report.entries[:10]
    ]
    payload = {
        "command": "mindist sweep",
        "config": config,
        "field": _field_json(f.params),
        "base_fn": _source_label(source),
        "scope": report.scope,
        "pairs_tested": report.pairs_tested,
        "planar_found": report.planar_found,
        "sample_witnesses": samples,
        "wall_time": None,
    }
    _output(args, "sweep.json", payload)
    if report.scope == "theorem" and report.planar_found > 0:
        return 1
    return 0


def _cmd_mindist_pairwise(args) -> int:
    if not args.input or len(args.input) < 2:
        raise UsageError("mindist pairwise needs at least two --input table files")
    fns = [load_table(path) for path in args.input]
    labels = tuple(Path(path).name for path in args.input)
    try:
        matrix = pairwise_min_distance(fns, labels)
    except NotPlanarEntry as exc:
        payload = {
            "command": "mindist pairwise",
            "error": "not_planar_entry",
            "detail": str(exc),
        }
        _output(args, "pairwise.json", payload)
        return 1
    report = {
        "command": "mindist pairwise",
        "field": _field_json(fns[0].params),
        "d": fns[0].d,
        "labels": list(matrix.labels),
        "matrix": [list(row) for row in matrix.matrix],
        "min_distance": matrix.min_distance,
        "duplicates": [list(pair) for pair in matrix.duplicates],
    }
    _output(args, "pairwise.json", report)
    if matrix.min_distance is not None and matrix.min_distance < 2:
        return 1
    return 0


def _cmd_catalog_list(args) -> int:
    entries = [
        {
            "name": e.name,
            "summary": e.summary,
            "default_d": e.default_d,
            "expects": e.expectations(),
        }
        for e in list_entries()
    ]
    _output(args, "catalog.json", {"command": "catalog list", "entries": entries})
    return 0


def _cmd_field_info(args) -> int:
    params = _resolve_field(args)
    _output(args, "field.json", {"command": "field info", "q": params.q, **_field_json(params)})
    return 0


# ---------------------------------------------------------------------------
# Parser.


def _add_field_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--p", type=int, default=None, help="field characteristic (prime)")
    p.add_argument("--ell", type=int, default=None, help="extension degree (default 1)")
    p.add_argument(
        "--modulus",
        type=str,
        default=None,
        help="comma-separated little-endian modulus coefficients (default: built-in)",
    )


def _add_function_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--catalog", type=str, default=None, help="catalog entry name")
    p.add_argument("--params", type=str, default=None, help="entry parameters, k=v[,k=v]")
    p.add_argument("--input", type=str, default=None, help="function table file")
    p.add_argument("--d", type=int, default=None, help="domain dimension")
    p.add_argument("--seed", type=int, default=None, help="seed for the random entry")


def _add_run_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--emit", type=str, default=None, help="directory for report files")
    p.add_argument("--format", choices=("json", "csv"), default="json", help="stdout payload")
    p.add_argument(
        "--threads",
        type=int,
        default=None,
        help=f"worker count (default ${_parallel.ENV_THREADS} or 1); never changes output bytes",
    )
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--fast", action="store_true", help="floating transform with exact spot checks")
    mode.add_argument("--exact", action="store_true", help="exact cyclotomic path (default)")


def _leaf(sub, name: str, handler, field=True, function=True, **kwargs):
    p = sub.add_parser(name, **kwargs)
    if field:
        _add_field_opts(p)
    if function:
        _add_function_opts(p)
    _add_run_opts(p)
    p.set_defaults(handler=handler)
    return p


def build_parser() -> argparse.ArgumentParser:
    root = argparse.ArgumentParser(
        prog="ffspectra",
        description="Exact character-sum spectra of functions over finite fields.",
    )
    sub = root.add_subparsers(dest="command", required=True)

    test = sub.add_parser("test", help="single-property verdicts")
    test_sub = test.add_subparsers(dest="what", required=True)
    _leaf(test_sub, "pn", _cmd_test_pn, help="perfect nonlinearity via difference counts")
    _leaf(test_sub, "bent", _cmd_test_bent, help="flat exact spectrum |S|^2 = q^d")

    _leaf(sub, "crosscheck", _cmd_crosscheck, help="PN and bent verdicts must agree (odd p)")

    salem = sub.add_parser("salem", help="graph spectrum reports")
    salem_sub = salem.add_subparsers(dest="what", required=True)
    _leaf(salem_sub, "report", _cmd_salem_report, help="spectrum and Salem constant, no assertions")
    _leaf(salem_sub, "verify-thm1", _cmd_salem_verify, help="two-case flat-graph certification")

    decomp = sub.add_parser("decomp", help="difference-operator reconstruction")
    decomp_sub = decomp.add_subparsers(dest="what", required=True)
    dv = _leaf(decomp_sub, "verify", _cmd_decomp_verify, help="rebuild every shift from the basis")
    dv.add_argument(
        "--basis",
        type=str,
        default=None,
        help="'standard' or d*ell comma-separated point indices",
    )

    mindist = sub.add_parser("mindist", help="distance properties of planar functions")
    mindist_sub = mindist.add_subparsers(dest="what", required=True)
    _leaf(mindist_sub, "sweep", _cmd_mindist_sweep, help="test all q(q-1) distance-1 neighbors")
    pw = mindist_sub.add_parser("pairwise", help="Hamming distance matrix of table files")
    pw.add_argument("--input", type=str, action="append", help="table file (repeat)")
    _add_run_opts(pw)
    pw.set_defaults(handler=_cmd_mindist_pairwise)

    catalog = sub.add_parser("catalog", help="built-in families")
    catalog_sub = catalog.add_subparsers(dest="what", required=True)
    _leaf(catalog_sub, "list", _cmd_catalog_list, field=False, function=False,
          help="list entries and verified expectations")

    field = sub.add_parser("field", help="field construction")
    field_sub = field.add_subparsers(dest="what", required=True)
    _leaf(field_sub, "info", _cmd_field_info, function=False,
          help="resolved parameters for --p/--ell/--modulus")

    return root


def _normalize_argv(argv: list[str]) -> list[str]:
    # bare `salem` means `salem report`
    if argv and argv[0] == "salem" and (len(argv) == 1 or argv[1].startswith("-")):
        return [argv[0], "report", *argv[1:]]
    return argv


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(_normalize_argv(argv))
    except SystemExit as exc:
        code = exc.code
        return int(code) if isinstance(code, int) else (0 if code is None else 2)
    started = time.perf_counter()
    try:
        code = args.handler(args)
    except PropertyMismatch as exc:
        print(f"ffspectra: check failed: {exc}", file=sys.stderr)
        return 1
    except (UsageError, FFSpectraError, OSError) as exc:
        print(f"ffspectra: error: {exc}", file=sys.stderr)
        return 2
    print(f"wall_time_s={time.perf_counter() - started:.3f}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
