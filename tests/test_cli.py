import hashlib
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from isoreduce import cli, isored, spectra
from isoreduce.cli import matrix_from_csv, matrix_to_csv, matrix_to_dot, parse_args
from isoreduce.netmat import bipartite_adjacency, project_rows

# The bundled dataset is a reviewed transcription; any edit must be deliberate.
DGG_SHA256 = "b81d316e66ca44d1c6fc3fb60940ad3753b0c6967d640955dbe3c40f5ddd0b7d"


def _data_bytes(name):
    return resources.files("isoreduce").joinpath("data", name).read_bytes()


def test_bundled_dataset_checksum():
    assert hashlib.sha256(_data_bytes("dgg.csv")).hexdigest() == DGG_SHA256


# -- argument parsing -----------------------------------------------------------


def test_parse_hierarchy_defaults():
    cfg = parse_args(["hierarchy", "--input", "dgg.csv"])
    assert cfg.subcommand == "hierarchy"
    assert cfg.mode == "bipartite"
    assert cfg.restrict is None


def test_parse_verify_tolerance():
    cfg = parse_args(["verify", "--input", "dgg.csv", "--keep", "keep.txt", "--tol", "1e-8"])
    assert cfg.tolerance == 1e-8
    assert cfg.keep == "keep.txt"


def test_parse_project():
    cfg = parse_args(["project", "--input", "dgg.csv", "--mode", "rows", "--output", "w2w.csv"])
    assert cfg.mode == "rows" and cfg.output == "w2w.csv"


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["frobnicate"],
        ["hierarchy", "--mode", "sideways"],
        ["reduce"],  # --keep is required
        ["verify", "--keep", "k.txt", "--tol", "-1"],
        ["verify", "--keep", "k.txt", "--tol", "nan"],
        ["verify", "--keep", "k.txt", "--tol", "inf"],
        ["hierarchy", "--year", "1937"],
    ],
)
def test_usage_errors_exit_64(argv, capsys):
    assert cli.main(argv) == 64
    assert capsys.readouterr().err


# -- subcommands ------------------------------------------------------------------


def test_hierarchy_cols_core(tmp_path, capsys):
    out = tmp_path / "h.json"
    assert cli.main(["hierarchy", "--mode", "cols", "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["core"] == ["E_6", "E_7", "E_8", "E_9"]
    assert len(doc["levels"]) == 1 and doc["levels"][0]["rank"] == 1


def test_hierarchy_restrict(tmp_path):
    members = tmp_path / "women.txt"
    members.write_text("# the row mode\n" + "\n".join(f"W_{i}" for i in range(1, 19)) + "\n")
    out = tmp_path / "h.json"
    assert cli.main(["hierarchy", "--restrict", str(members), "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["core"] == ["W_1", "W_2", "W_3", "W_4"]
    assert doc["levels"][-1]["members"] == ["W_14"]


def test_hierarchy_restrict_unknown_label_exit_1(tmp_path, capsys):
    members = tmp_path / "typo.txt"
    members.write_text("zz\n")
    out = tmp_path / "h.json"
    assert cli.main(["hierarchy", "--restrict", str(members), "--output", str(out)]) == 1
    assert "error: unknown node label in the restriction: 'zz'" in capsys.readouterr().err
    assert not out.exists()


def test_project_round_trip(tmp_path, dgg):
    out = tmp_path / "w2w.csv"
    assert cli.main(["project", "--mode", "rows", "--output", str(out)]) == 0
    parsed = matrix_from_csv(out.read_text())
    assert parsed == project_rows(dgg)


def test_reduce_json(tmp_path, dgg):
    keep = tmp_path / "keep.txt"
    keep.write_text("\n".join(lab for lab in bipartite_adjacency(dgg).labels
                              if lab not in ("W_16", "W_17", "W_18")))
    out = tmp_path / "r1.json"
    assert cli.main(["reduce", "--keep", str(keep), "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["removed"] == ["W_16", "W_17", "W_18"]
    assert len(doc["labels"]) == 29
    idx8, idx9 = doc["labels"].index("E_8"), doc["labels"].index("E_9")
    assert doc["entries"][idx8][idx9] == "(1)/(x)"


def test_reduce_dot(tmp_path):
    keep = tmp_path / "keep.txt"
    keep.write_text("1\n3\n")
    csv = tmp_path / "p3.csv"
    csv.write_text("name,2\n1,1\n3,1\n")
    out = tmp_path / "g.dot"
    code = cli.main(
        ["reduce", "--input", str(csv), "--keep", str(keep), "--format", "dot",
         "--output", str(out)]
    )
    assert code == 0
    text = out.read_text()
    assert text.startswith("graph reduced {")
    assert '"1" -- "1" [label="(1)/(x)"];' in text
    assert '"1" -- "3" [label="(1)/(x)"];' in text


def test_verify_passes_on_bundled_data(tmp_path):
    keep = tmp_path / "keep.txt"
    labels = [f"W_{i}" for i in range(1, 16)] + [f"E_{j}" for j in range(1, 15)]
    keep.write_text("\n".join(labels))
    out = tmp_path / "report.json"
    code = cli.main(["verify", "--keep", str(keep), "--tol", "1e-6", "--output", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] is True


def test_verify_exit_2_on_failure(tmp_path):
    keep = tmp_path / "keep.txt"
    labels = [f"W_{i}" for i in range(1, 16)] + [f"E_{j}" for j in range(1, 15)]
    keep.write_text("\n".join(labels))
    # an absurd tolerance fails some checks without faking anything else
    code = cli.main(["verify", "--keep", str(keep), "--tol", "1e-30",
                     "--output", str(tmp_path / "r.json")])
    assert code == 2


def test_computation_failures_exit_3(tmp_path, monkeypatch, capsys):
    keep = tmp_path / "keep.txt"
    keep.write_text("W_1\nE_1\n")

    def singular(m, s):
        raise isored.SingularMatrixError("pivot of 'W_2' vanishes over the function field")

    def no_convergence(m):
        raise spectra.ConvergenceError("Jacobi iteration did not converge")

    monkeypatch.setattr(isored, "reduce", singular)
    assert cli.main(["reduce", "--keep", str(keep)]) == cli.EXIT_COMPUTE == 3
    assert "error: pivot of 'W_2' vanishes" in capsys.readouterr().err
    monkeypatch.undo()
    monkeypatch.setattr(spectra, "sym_eigenvalues", no_convergence)
    assert cli.main(["verify", "--keep", str(keep)]) == 3
    assert "error: Jacobi iteration did not converge" in capsys.readouterr().err


def test_dynamics_outputs(tmp_path):
    csv_out = tmp_path / "series.csv"
    summary_out = tmp_path / "summary.json"
    code = cli.main(["dynamics", "--output", str(csv_out), "--summary", str(summary_out)])
    assert code == 0
    lines = csv_out.read_text().splitlines()
    assert lines[0] == "group,event_class,event,date,count"
    assert "G1,group1_events,E_5,2/25,8" in lines
    assert "G2,joint_events,E_6,5/19,1" in lines
    summary = json.loads(summary_out.read_text())
    assert summary["G1/joint_events"]["mean"] == "11/2"
    assert summary["G2/joint_events"]["sample_variance"] == "25/4"


@pytest.mark.parametrize(
    "text",
    [
        '{"groups": 5, "event_classes": {}}',
        '{"groups": {"a": ["W_1"]}, "event_classes": {"c": 7}}',
        '"groups and event_classes"',
    ],
)
def test_malformed_group_file_exit_1(tmp_path, capsys, text):
    groups = tmp_path / "groups.json"
    groups.write_text(text)
    assert cli.main(["dynamics", "--groups", str(groups)]) == 1
    assert "error: group file needs" in capsys.readouterr().err


def test_malformed_csv_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("name,c1,c2\nr1,1,2\n")
    assert cli.main(["hierarchy", "--input", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "line 2" in err and "column 3" in err


def test_missing_input_exit_1(tmp_path):
    assert cli.main(["hierarchy", "--input", str(tmp_path / "nope.csv")]) == 1


def test_reproduce_bundled(capsys):
    assert cli.main(["reproduce"]) == 0
    out = capsys.readouterr().out
    assert "all sections match the checked-in expectations" in out


def test_reproduce_as_module_child_process(tmp_path):
    # The __main__ -> entrypoint -> sys.exit path, run as the benchmark runs it.
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "isoreduce.cli", "reproduce"],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "all sections match the checked-in expectations" in proc.stdout


def test_deterministic_output(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(["hierarchy", "--mode", "rows", "--output", str(a)]) == 0
    assert cli.main(["hierarchy", "--mode", "rows", "--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# -- emitters ------------------------------------------------------------------------


def test_matrix_csv_rejects_garbage():
    with pytest.raises(ValueError):
        matrix_from_csv("nope,a\n")
    with pytest.raises(ValueError):
        matrix_from_csv("name,a\nb,1,2\n")
    # rows swapped against the header, and rows the header does not name
    for text in ("name,a,b\nb,1,0\na,0,2\n", "name,a,b\nzz,1,0\nqq,0,2\n"):
        with pytest.raises(ValueError):
            matrix_from_csv(text)


def test_dot_directed_when_asymmetric():
    from isoreduce.netmat import RfMatrix

    m = RfMatrix(("a", "b"), [[0, 1], [0, 0]])
    text = matrix_to_dot(m)
    assert text.startswith("digraph reduced {\n")
    assert '"a" -> "b"' in text


def test_matrix_csv_round_trip_preserves_text(dgg):
    m = project_rows(dgg)
    text = matrix_to_csv(m)
    assert matrix_to_csv(matrix_from_csv(text)) == text
