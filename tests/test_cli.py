"""Command line driver: exit codes, JSON/CSV payloads, emitted files, and
byte-identical output across worker counts."""

import json

from ffspectra import FnSpec, build_function, funcs, make_field
from ffspectra.cli import main
from ffspectra.funcs import save_table


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def test_test_pn_pass(capsys):
    code, doc, err = run_json(capsys, "test", "pn", "--catalog", "square", "--p", "5")
    assert code == 0
    assert doc["command"] == "test pn"
    assert doc["verdict"] == "pn"
    assert doc["witness"] is None
    assert doc["config"]["p"] == 5
    assert doc["config"]["ell"] == 1
    assert doc["config"]["modulus"] == [0, 1]
    assert doc["config"]["d"] == 1
    assert doc["config"]["source"] == {"catalog": "square", "params": {}}
    assert "wall_time_s=" in err  # real timing goes to stderr only


def test_test_pn_fail_witness(capsys):
    code, doc, _ = run_json(
        capsys, "test", "pn", "--catalog", "power", "--p", "5", "--params", "e=3"
    )
    assert code == 1
    assert doc["verdict"] == "not_pn"
    assert doc["witness"] == {"a_index": 1, "value_index": 1, "count": 2}


def test_test_bent_exact_and_fast(capsys):
    code, doc, _ = run_json(
        capsys, "test", "bent", "--catalog", "square", "--p", "7", "--exact"
    )
    assert code == 0 and doc["verdict"] == "bent"
    assert doc["target_abs_sq"] == 7
    code, doc, _ = run_json(
        capsys, "test", "bent", "--catalog", "square", "--p", "7", "--fast"
    )
    assert code == 0 and doc["verdict"] == "bent"
    assert doc["spot_checks"]["mismatches"] == 0
    assert doc["spot_checks"]["sampled"] > 0
    assert doc["config"]["mode"] == "fast"
    # a linear table is not bent; the fast path reports the least witness
    code, doc, _ = run_json(
        capsys, "test", "bent", "--catalog", "affine", "--p", "5", "--fast"
    )
    assert code == 1 and doc["verdict"] == "not_bent"
    assert doc["witness"]["u_index"] == 1


def test_test_bent_emits_spectrum_files(capsys, tmp_path):
    emit = tmp_path / "out"
    code, doc, _ = run_json(
        capsys,
        "test", "bent", "--catalog", "square", "--p", "5", "--exact",
        "--emit", str(emit),
    )
    assert code == 0
    assert (emit / "bent.json").exists()
    for u in range(1, 5):
        text = (emit / f"spectrum_u{u}.csv").read_text()
        lines = text.splitlines()
        assert lines[0] == "m_index,m_coords,abs_sq_exact,magnitude_float"
        assert len(lines) == 6
        assert all(line.split(",")[2] == "5" for line in lines[1:])
    assert json.loads((emit / "bent.json").read_text()) == doc


def test_crosscheck(capsys):
    code, doc, _ = run_json(capsys, "crosscheck", "--catalog", "square", "--p", "5")
    assert code == 0
    assert doc["pn"] == "pn" and doc["bent"] == "bent" and doc["agree"] is True
    code, doc, _ = run_json(
        capsys, "crosscheck", "--catalog", "power", "--p", "5", "--params", "e=3"
    )
    assert code == 0  # verdicts agree (both negative): the equivalence holds
    assert doc["pn"] == "not_pn" and doc["bent"] == "not_bent" and doc["agree"] is True


def test_salem_verify_frozen(capsys):
    code, doc, _ = run_json(capsys, "salem", "verify-thm1", "--catalog", "square", "--p", "5")
    assert code == 0
    assert doc["command"] == "salem verify-thm1"
    assert doc["q"] == 5 and doc["d"] == 2 and doc["cardinality"] == 5
    assert doc["salem_constant"] == 1.0
    assert doc["argmax_m"] == [0, 1]
    assert doc["max_abs_sq"] == 5
    assert doc["theorem1_pass"] is True
    assert doc["wall_time"] is None  # deterministic output; timing on stderr


def test_salem_bare_defaults_to_report(capsys):
    code, doc, _ = run_json(capsys, "salem", "--catalog", "square", "--p", "5")
    assert code == 0
    assert doc["command"] == "salem report"
    assert doc["theorem1_pass"] is None


def test_salem_hypothesis_failed(capsys):
    code, doc, _ = run_json(
        capsys, "salem", "verify-thm1", "--catalog", "power", "--p", "5"
    )
    assert code == 1
    assert doc["error"] == "hypothesis_failed"
    assert doc["witness"]["u_index"] == 1


def test_salem_csv_format(capsys, tmp_path):
    emit = tmp_path / "s"
    code, out, _ = run(
        capsys,
        "salem", "verify-thm1", "--catalog", "square", "--p", "5",
        "--format", "csv", "--emit", str(emit),
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "m_index,m_coords,case_tag,abs_sq_exact,magnitude_float,bound_ratio"
    assert len(lines) == 26
    assert lines[1].startswith("0,0;0,zero,25,")
    # both artifacts are emitted regardless of the stdout format
    assert (emit / "salem.csv").read_text() == out
    assert (emit / "salem.json").exists()


def test_csv_cells_render_each_value_by_its_own_repr():
    import dataclasses

    import numpy as np

    from ffspectra import cli
    from ffspectra.salem import PointSet, salem_report

    nan = float("nan")
    values = [0.0, -0.0, 0, None, 1.5, 2.0**0.5, 1.5, -0.0, nan, 7, 7]
    assert cli._cells(values) == [repr(v) if v is not None else "" for v in values]
    assert cli._cells(values)[:4] == ["0.0", "-0.0", "0", ""]

    # a report whose magnitudes and ratios hold both zeros, in either order
    f5 = make_field(5)
    report = salem_report(PointSet(f5, 1, np.array([True, True, False, False, False])))
    mags = np.array([2.0, -0.0, 0.0, -0.0, 0.0])
    signed = dataclasses.replace(report, magnitudes=mags, ratios=mags / 2.0)
    rows = [line.split(",") for line in cli._salem_csv(signed).splitlines()[1:]]
    assert [r[4] for r in rows] == ["2.0", "-0.0", "0.0", "-0.0", "0.0"]
    assert [r[5] for r in rows] == ["1.0", "-0.0", "0.0", "-0.0", "0.0"]


def test_salem_csv_rendered_only_when_asked(capsys, tmp_path, monkeypatch):
    from ffspectra import cli

    renders = []
    original = cli._salem_csv

    def counting(report):
        renders.append(report)
        return original(report)

    monkeypatch.setattr(cli, "_salem_csv", counting)
    argv = ["salem", "verify-thm1", "--catalog", "square", "--p", "5", "--ell", "2"]
    code, plain, _ = run(capsys, *argv)
    assert code == 0 and renders == []
    emit = tmp_path / "s"
    code, emitted, _ = run(capsys, *argv, "--emit", str(emit))
    assert code == 0 and len(renders) == 1
    assert emitted == plain == (emit / "salem.json").read_text()
    code, csv_out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0 and len(renders) == 2
    assert (emit / "salem.csv").read_text() == csv_out


def test_decomp_verify(capsys):
    code, doc, _ = run_json(
        capsys, "decomp", "verify", "--catalog", "square", "--p", "3", "--ell", "2"
    )
    assert code == 0
    assert doc["pass"] is True and doc["failing_a"] is None
    assert doc["shifts_checked"] == 8
    assert doc["basis"] == [1, 3]
    assert doc["field"] == {"p": 3, "ell": 2, "modulus": [1, 0, 1]}


def test_decomp_verify_non_standard_basis(capsys):
    code, doc, _ = run_json(
        capsys,
        "decomp", "verify", "--catalog", "square", "--p", "3", "--ell", "2",
        "--basis", "4,3",
    )
    assert code == 0 and doc["pass"] is True
    assert doc["basis"] == [4, 3]
    code2, doc2, _ = run_json(
        capsys,
        "decomp", "verify", "--catalog", "square", "--p", "3", "--ell", "2",
        "--basis", "standard",
    )
    assert code2 == 0 and doc2["basis"] == [1, 3]


def test_mindist_sweep(capsys):
    code, doc, _ = run_json(capsys, "mindist", "sweep", "--catalog", "square", "--p", "5")
    assert code == 0
    assert doc["scope"] == "theorem"
    assert doc["pairs_tested"] == 20 and doc["planar_found"] == 0
    assert doc["base_fn"] == "catalog:square"
    assert len(doc["sample_witnesses"]) == 10
    first = doc["sample_witnesses"][0]
    assert first["witness"]["count"] > 1


def test_mindist_sweep_outside_scope(capsys):
    # p=3 runs and reports, but the theorem makes no claim there: exit 0
    code, doc, _ = run_json(capsys, "mindist", "sweep", "--catalog", "square", "--p", "3")
    assert code == 0
    assert doc["scope"] == "outside-theorem-scope"
    assert doc["pairs_tested"] == 6 and doc["planar_found"] == 3


def test_mindist_sweep_not_planar_base(capsys):
    code, doc, _ = run_json(
        capsys, "mindist", "sweep", "--catalog", "power", "--p", "5"
    )
    assert code == 1
    assert doc["error"] == "not_planar_base"
    assert doc["witness"] == {"a_index": 1, "value_index": 1, "count": 2}


def test_a_catalog_command_makes_one_pn_scan(capsys, monkeypatch):
    # the catalog's load check and the command read one scan, held on the table
    scans = []
    scan = funcs._pn_scan
    monkeypatch.setattr(funcs, "_pn_scan", lambda *args: scans.append(args) or scan(*args))
    for argv in (["mindist", "sweep", "--catalog", "square", "--p", "11", "--ell", "2"],
                 ["test", "pn", "--catalog", "square", "--p", "5"]):
        scans.clear()
        assert run(capsys, *argv)[0] == 0
        assert len(scans) == 1


def _write_tables(tmp_path):
    f5 = make_field(5)
    sq = build_function(FnSpec.univariate([0, 0, 1]), f5, 1)
    two_sq = build_function(FnSpec.univariate([0, 0, 2]), f5, 1)
    cube = build_function(FnSpec.univariate([0, 0, 0, 1]), f5, 1)
    paths = {}
    for name, f in [("sq.txt", sq), ("two_sq.txt", two_sq), ("cube.txt", cube)]:
        path = tmp_path / name
        save_table(f, path)
        paths[name] = str(path)
    return paths


def test_mindist_pairwise(capsys, tmp_path):
    paths = _write_tables(tmp_path)
    code, doc, _ = run_json(
        capsys, "mindist", "pairwise", "--input", paths["sq.txt"], "--input", paths["two_sq.txt"]
    )
    assert code == 0
    assert doc["min_distance"] == 4
    assert doc["labels"] == ["sq.txt", "two_sq.txt"]
    assert doc["matrix"] == [[0, 4], [4, 0]]
    assert doc["duplicates"] == []
    code, doc, _ = run_json(
        capsys, "mindist", "pairwise", "--input", paths["sq.txt"], "--input", paths["cube.txt"]
    )
    assert code == 1 and doc["error"] == "not_planar_entry"
    code, _, _ = run(capsys, "mindist", "pairwise", "--input", paths["sq.txt"])
    assert code == 2  # needs two tables


def test_mindist_pairwise_not_planar_is_emitted(capsys, tmp_path):
    paths = _write_tables(tmp_path)
    argv = ["mindist", "pairwise", "--input", paths["sq.txt"], "--input", paths["cube.txt"]]
    code, plain, _ = run(capsys, *argv)
    emit = tmp_path / "emit"
    code_emit, out, _ = run(capsys, *argv, "--emit", str(emit))
    assert code == code_emit == 1
    assert out == plain
    assert json.loads(out)["error"] == "not_planar_entry"
    assert (emit / "pairwise.json").read_bytes() == out.encode("ascii")


def test_input_table_flow(capsys, tmp_path):
    paths = _write_tables(tmp_path)
    code, doc, _ = run_json(capsys, "test", "pn", "--input", paths["sq.txt"])
    assert code == 0
    assert doc["config"]["source"] == {"input": "sq.txt"}
    assert doc["config"]["p"] == 5  # field read from the file header
    # the table file carries the field: field flags conflict
    code, _, _ = run(capsys, "test", "pn", "--input", paths["sq.txt"], "--p", "5")
    assert code == 2
    code, _, _ = run(capsys, "test", "pn", "--input", str(tmp_path / "missing.txt"))
    assert code == 2


def test_catalog_list(capsys):
    code, doc, _ = run_json(capsys, "catalog", "list")
    assert code == 0
    names = [e["name"] for e in doc["entries"]]
    assert "square" in names and names == sorted(names)


def test_field_info(capsys):
    code, doc, _ = run_json(capsys, "field", "info", "--p", "7", "--ell", "2")
    assert code == 0
    assert doc == {"command": "field info", "ell": 2, "modulus": [1, 0, 1], "p": 7, "q": 49}
    # a prime field past the extension-field table takes the modulus t
    code, doc, _ = run_json(capsys, "field", "info", "--p", "1009")
    assert code == 0
    assert doc == {"command": "field info", "ell": 1, "modulus": [0, 1], "p": 1009, "q": 1009}


def test_usage_errors(capsys):
    code, _, _ = run(capsys, "test", "pn", "--catalog", "square")  # missing --p
    assert code == 2
    code, _, _ = run(capsys, "test", "pn", "--p", "5")  # missing function source
    assert code == 2
    code, _, _ = run(capsys, "test", "pn", "--catalog", "nope", "--p", "5")
    assert code == 2
    code, _, _ = run(capsys, "test", "pn", "--catalog", "square", "--p", "4")
    assert code == 2  # non-prime
    code, _, _ = run(
        capsys, "test", "pn", "--catalog", "square", "--p", "5", "--params", "e"
    )
    assert code == 2  # malformed k=v
    for e in ("0", "-1"):  # exit 1 would read as a not_pn verdict
        code, out, err = run(
            capsys, "test", "pn", "--catalog", "power", "--p", "5", "--params", f"e={e}"
        )
        assert (code, out) == (2, "")
        assert err == "ffspectra: error: exponent must be >= 1\n"
    code, _, _ = run(capsys, "test", "bent", "--catalog", "square", "--p", "5",
                     "--fast", "--exact")
    assert code == 2  # mutually exclusive
    code, _, _ = run(capsys, "no-such-command")
    assert code == 2


def test_json_is_canonical(capsys):
    _, out, _ = run(capsys, "field", "info", "--p", "5")
    assert out.endswith("\n")
    doc = json.loads(out)
    assert out == json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=True) + "\n"


def test_thread_count_never_changes_bytes(capsys):
    outputs = set()
    for threads in ("1", "4", "8"):
        _, out, _ = run(
            capsys,
            "salem", "verify-thm1", "--catalog", "square", "--p", "3", "--ell", "2",
            "--threads", threads,
        )
        outputs.add(out)
    assert len(outputs) == 1
    outputs = set()
    for threads in ("1", "3"):
        _, out, _ = run(
            capsys,
            "decomp", "verify", "--catalog", "random", "--p", "5", "--d", "2",
            "--params", "seed=4", "--threads", threads,
        )
        outputs.add(out)
    assert len(outputs) == 1


def test_env_var_thread_default(capsys, monkeypatch):
    _, base, _ = run(capsys, "test", "pn", "--catalog", "square", "--p", "5")
    monkeypatch.setenv("FFSPECTRA_THREADS", "2")
    _, with_env, _ = run(capsys, "test", "pn", "--catalog", "square", "--p", "5")
    assert base == with_env


def test_seed_flag_merges_into_params(capsys):
    _, doc_flag, _ = run_json(
        capsys, "test", "pn", "--catalog", "random", "--p", "5", "--seed", "9"
    )
    _, doc_params, _ = run_json(
        capsys, "test", "pn", "--catalog", "random", "--p", "5", "--params", "seed=9"
    )
    assert doc_flag["verdict"] == doc_params["verdict"]
    assert doc_flag["config"]["source"] == doc_params["config"]["source"]


def test_module_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "ffspectra", "field", "info", "--p", "5"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["q"] == 5
