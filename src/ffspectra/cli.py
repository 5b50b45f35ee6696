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

Exit codes: 0 when the command's library verdict holds (or it has none);
1 when it fails or a theorem's hypothesis fails (the report carries the
witness); 2 on a usage or input error, or an input past a size cap.

Reports are canonical: JSON with sorted keys and two-space indent, CSV
with LF line endings, and no timing dependent content (wall time goes to
the diagnostic stream, wall_time fields are null), so identical
configurations produce byte-identical files.  Every command runs in one
process; --threads N is still accepted and has no effect.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Sequence

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
    BentVerdict,
    BentWitness,
    FastBentWitness,
    crosscheck_pn_bent,
    is_bent_exact,
    is_bent_fast,
    spectrum_reports,
)


class UsageError(Exception):
    """Bad flag combination or missing input; maps to exit code 2."""


# ---------------------------------------------------------------------------
# Canonical serialization.


def canonical_json(obj) -> str:
    """Sorted keys, two-space indent, trailing newline; ASCII only."""
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


def _emit(args, name: str, text: str) -> None:
    if args.emit is not None:
        Path(args.emit).mkdir(parents=True, exist_ok=True)
        with open(Path(args.emit) / name, "w", encoding="ascii", newline="") as fh:
            fh.write(text)


def _finish(
    args, stem: str, payload: dict, passed: bool | None = None, csv: str | None = None
) -> int:
    """Print the canonical JSON payload (or, under --format csv, the CSV of a
    command that has one), write both to --emit as stem.json and stem.csv,
    and exit 1 exactly when the library verdict passed is False."""
    text = canonical_json(payload)
    sys.stdout.write(csv if csv is not None and args.format == "csv" else text)
    _emit(args, f"{stem}.json", text)
    if csv is not None:
        _emit(args, f"{stem}.csv", csv)
    return 1 if passed is False else 0


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


def _field_json(params: FieldParams) -> dict:
    return {"p": params.p, "ell": params.ell, "modulus": list(params.modulus)}


def _table(args, command: str) -> tuple[FnTable, dict]:
    """The requested table and the payload head: the command and everything
    that determines a run's output, in echoable form."""
    if args.input is not None and args.catalog is not None:
        raise UsageError("--catalog and --input are mutually exclusive")
    if args.input is not None:
        for flag in ("p", "ell", "modulus", "d"):
            if getattr(args, flag) is not None:
                raise UsageError(f"--{flag} conflicts with --input; the table file carries the field")
        f, source = load_table(args.input), {"input": Path(args.input).name}
    elif args.catalog is None:
        raise UsageError("one of --catalog or --input is required")
    else:
        params = _resolve_field(args)
        kv = _parse_params_arg(args.params)
        if args.seed is not None:
            kv.setdefault("seed", args.seed)
        f = get_function(args.catalog, params, d=args.d, **kv)
        source = {"catalog": args.catalog, "params": kv}
    config = {
        **_field_json(f.params),
        "d": f.d,
        "source": source,
        "format": args.format,
        "mode": "fast" if args.fast else "exact",
    }
    return f, {"command": command, "config": config}


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


# ---------------------------------------------------------------------------
# CSV renderers, from the report columns.


def _m_column(params: FieldParams, d: int) -> list[str]:
    """'m_index,m_coords' for every m: the base-q digits of m, low digit first."""
    coords = names = [str(c) for c in range(params.q)]
    for _ in range(1, d):
        coords = [f"{low};{high}" for high in names for low in coords]
    return [f"{m},{c}" for m, c in enumerate(coords)]


def _cells(values: list) -> list[str]:
    """Exact integers and floats by repr, each distinct value rendered once;
    None is an empty cell.  None and the zeros skip the memo, because
    0.0 == -0.0 while their reprs differ."""
    rendered = {v: repr(v) for v in set(values) if v}
    return [rendered[v] if v else "" if v is None else repr(v) for v in values]


def _csv(header: str, *columns: list[str]) -> str:
    return "\n".join([header, *map(",".join, zip(*columns))]) + "\n"


def _salem_csv(report: SalemReport) -> str:
    columns = report.abs_sq_ints, report.magnitudes.tolist(), report.ratios.tolist()
    return _csv(
        "m_index,m_coords,case_tag,abs_sq_exact,magnitude_float,bound_ratio",
        _m_column(report.params, report.d),
        report.case_tags,
        *map(_cells, columns),
    )


# ---------------------------------------------------------------------------
# Refusals: a theorem's hypothesis fails, and the payload carries the witness.

_REFUSALS = {  # error tag and witness renderer; the pairwise refusal names no witness
    HypothesisFailed: ("hypothesis_failed", _bent_witness_json),
    NotPlanarBase: ("not_planar_base", _pn_witness_json),
    NotPlanarEntry: ("not_planar_entry", None),
}


def _refuse(args, stem: str, head: dict, exc: HypothesisFailed) -> int:
    error, witness_json = _REFUSALS[type(exc)]
    payload = {**head, "error": error, "detail": str(exc)}
    if witness_json is not None:
        payload["witness"] = witness_json(exc.witness)
    return _finish(args, stem, payload, False)


# ---------------------------------------------------------------------------
# Command handlers.


def _cmd_test_pn(args) -> int:
    f, head = _table(args, "test pn")
    verdict = is_pn(f)
    payload = {**head, "verdict": verdict.verdict, "witness": _pn_witness_json(verdict.witness)}
    return _finish(args, "pn", payload, verdict.is_pn)


def _cmd_test_bent(args) -> int:
    f, head = _table(args, "test bent")
    payload = {**head, "target_abs_sq": f.n_points}
    if args.fast:
        verdict = is_bent_fast(f)
        payload["spot_checks"] = {"sampled": verdict.sampled, "mismatches": verdict.mismatches}
        passed = verdict.certified
    else:
        verdict = is_bent_exact(f) if args.emit is None else _emit_spectra(args, f)
        passed = verdict.is_bent
    payload["verdict"] = verdict.verdict
    payload["witness"] = _bent_witness_json(verdict.witness)
    return _finish(args, "bent", payload, passed)


def _emit_spectra(args, f: FnTable) -> BentVerdict:
    """One CSV file per u from the exact orbit pass; returns its verdict."""
    m_column = _m_column(f.params, f.d)
    reports = spectrum_reports(f)
    while True:
        try:
            rep = next(reports)
        except StopIteration as done:
            return done.value
        cells = _cells(rep.abs_sq_ints), _cells(rep.magnitudes.tolist())
        text = _csv("m_index,m_coords,abs_sq_exact,magnitude_float", m_column, *cells)
        _emit(args, f"spectrum_u{rep.u_index}.csv", text)


def _cmd_crosscheck(args) -> int:
    f, head = _table(args, "crosscheck")
    result = crosscheck_pn_bent(f)
    payload = {
        **head,
        "pn": result.pn.verdict,
        "bent": result.bent.verdict,
        "agree": result.agree,
        "pn_witness": _pn_witness_json(result.pn.witness),
        "bent_witness": _bent_witness_json(result.bent.witness),
    }
    return _finish(args, "crosscheck", payload, result.agree)


def _salem_finish(args, head: dict, report: SalemReport) -> int:
    """The JSON or CSV report per --format; --emit gets both."""
    payload = {
        **head,
        "q": report.params.q,
        "d": report.d,
        "cardinality": report.cardinality,
        "salem_constant": report.salem_constant,
        "argmax_m": [c.index for c in report.argmax_m.coords],
        "max_abs_sq": report.max_abs_sq_int,
        "theorem1_pass": report.theorem1_pass,
        "wall_time": None,
    }
    csv = _salem_csv(report) if args.format == "csv" or args.emit is not None else None
    return _finish(args, "salem", payload, report.theorem1_pass, csv)


def _cmd_salem_report(args) -> int:
    f, head = _table(args, "salem report")
    return _salem_finish(args, head, salem_report(graph_of(f)))


def _cmd_salem_verify(args) -> int:
    f, head = _table(args, "salem verify-thm1")
    try:
        report = verify_theorem1(f)
    except HypothesisFailed as exc:
        return _refuse(args, "salem", head, exc)
    return _salem_finish(args, head, report)


def _parse_basis(args, f: FnTable) -> SpaceBasis:
    if args.basis is None or args.basis == "standard":
        return standard_basis(f.params, f.d)
    try:
        indices = [int(c) for c in args.basis.replace(",", " ").split()]
    except ValueError:
        raise UsageError("--basis is 'standard' or comma-separated point indices") from None
    vectors = tuple(PointVector.from_index(f.params, f.d, i) for i in indices)
    return SpaceBasis(f.params, f.d, vectors)


def _cmd_decomp_verify(args) -> int:
    f, head = _table(args, "decomp verify")
    basis = _parse_basis(args, f)
    verdict = verify_decomposition(f, basis)
    payload = {
        **head,
        "field": _field_json(f.params),
        "d": f.d,
        "basis": [v.index for v in basis.vectors],
        "shifts_checked": verdict.shifts_checked,
        "pass": verdict.passed,
        "failing_a": None if verdict.failing_a is None else verdict.failing_a.index,
    }
    return _finish(args, "decomp", payload, verdict.passed)


def _source_label(source: dict) -> str:
    if "catalog" in source:
        suffix = ",".join(f"{k}={v}" for k, v in sorted(source["params"].items()))
        return f"catalog:{source['catalog']}" + (f"[{suffix}]" if suffix else "")
    return f"input:{source['input']}"


def _cmd_mindist_sweep(args) -> int:
    f, head = _table(args, "mindist sweep")
    try:
        report = perturbation_sweep(f)
    except HypothesisFailed as exc:
        return _refuse(args, "sweep", head, exc)
    samples = [
        {"w_index": e.w_index, "v_index": e.v_index, "witness": _pn_witness_json(e.witness)}
        for e in report.entries[:10]
    ]
    payload = {
        **head,
        "field": _field_json(f.params),
        "base_fn": _source_label(head["config"]["source"]),
        "scope": report.scope,
        "pairs_tested": report.pairs_tested,
        "planar_found": report.planar_found,
        "sample_witnesses": samples,
        "wall_time": None,
    }
    return _finish(args, "sweep", payload, report.passed)


def _cmd_mindist_pairwise(args) -> int:
    if not args.input or len(args.input) < 2:
        raise UsageError("mindist pairwise needs at least two --input table files")
    fns = [load_table(path) for path in args.input]
    head = {"command": "mindist pairwise"}
    try:
        matrix = pairwise_min_distance(fns, tuple(Path(path).name for path in args.input))
    except HypothesisFailed as exc:
        return _refuse(args, "pairwise", head, exc)
    payload = {
        **head,
        "field": _field_json(fns[0].params),
        "d": fns[0].d,
        "labels": list(matrix.labels),
        "matrix": [list(row) for row in matrix.matrix],
        "min_distance": matrix.min_distance,
        "duplicates": [list(pair) for pair in matrix.duplicates],
    }
    return _finish(args, "pairwise", payload, matrix.passed)


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
    return _finish(args, "catalog", {"command": "catalog list", "entries": entries})


def _cmd_field_info(args) -> int:
    params = _resolve_field(args)
    return _finish(args, "field", {"command": "field info", "q": params.q, **_field_json(params)})


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
        help="has no effect: every command runs in one process",
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
