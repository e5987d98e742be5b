import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest

from dgg_expected import BLOCK_KEEP
from isoreduce import cli, isored, spectra
from isoreduce.cli import matrix_to_csv, matrix_to_dot, parse_args
from isoreduce.exactnum import RatFun, ratfun_from_str
from isoreduce.hierarchy import sequential_reduce
from isoreduce.netmat import RfMatrix, bipartite_adjacency, load_incidence, project_rows

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
        ["verify", "--keep", "k.txt", "--tol", "abc"],
        ["hierarchy", "--year", "1937"],
        ["reproduce", "--input", "x.csv"],  # reproduce always reads the bundled dataset
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


def test_labels_may_contain_hash(tmp_path):
    # only a line that starts with '#' is a comment
    csv, keep, four = tmp_path / "h.csv", tmp_path / "keep.txt", tmp_path / "four.txt"
    csv.write_text("name,E1,E2\nW#1,1,0\nW2,1,1\n")
    keep.write_text("  # kept nodes\nW#1\nE1\nE2\n")
    out = tmp_path / "r.json"
    assert cli.main(["reduce", "--input", str(csv), "--keep", str(keep), "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["labels"] == ["W#1", "E1", "E2"] and doc["removed"] == ["W2"]
    four.write_text("W#1\nW2\n")
    out = tmp_path / "h.json"
    argv = ["hierarchy", "--input", str(csv), "--restrict", str(four), "--output", str(out)]
    assert cli.main(argv) == 0
    doc = json.loads(out.read_text())
    assert doc["core"] == ["W2"] and doc["levels"] == [{"rank": 1, "members": ["W#1"]}]


@pytest.mark.parametrize(
    "argv, content",
    [
        (["hierarchy", "--input"], _data_bytes("dgg.csv")),
        (["reduce", "--keep"], BLOCK_KEEP.replace(" ", "\n").encode()),
        (["hierarchy", "--restrict"], "\n".join(f"W_{i}" for i in range(1, 19)).encode()),
        (["dynamics", "--groups"], _data_bytes("dgg_groups.json")),
    ],
    ids=["input", "keep", "restrict", "groups"],
)
def test_input_may_start_with_a_utf8_bom(tmp_path, capsys, argv, content):
    # spreadsheet exports start their CSV with U+FEFF
    outputs = []
    for name, data in (("plain", content), ("bom", b"\xef\xbb\xbf" + content)):
        source, out = tmp_path / name, tmp_path / f"{name}.out"
        source.write_bytes(data)
        assert cli.main([*argv, str(source), "--output", str(out)]) == 0
        outputs.append((out.read_bytes(), capsys.readouterr().out))
    assert outputs[0] == outputs[1]


def test_label_starting_with_hash_exit_1(tmp_path, capsys):
    # a keep file could not name it: its line would be a comment
    csv, keep = tmp_path / "h.csv", tmp_path / "keep.txt"
    csv.write_text("name,E1,E2\n #W,1,0\nW2,1,1\n")
    keep.write_text("#W\nE1\nE2\n")
    out = tmp_path / "r.json"
    assert cli.main(["reduce", "--input", str(csv), "--keep", str(keep), "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "error: a label must not start with '#', got '#W' (line 2, column 1)\n"
    assert not out.exists()


def test_hierarchy_restrict_unknown_label_exit_1(tmp_path, capsys):
    members = tmp_path / "typo.txt"
    members.write_text("zz\n")
    out = tmp_path / "h.json"
    assert cli.main(["hierarchy", "--restrict", str(members), "--output", str(out)]) == 1
    assert "error: unknown node label in the restriction: 'zz'" in capsys.readouterr().err
    assert not out.exists()


def _csv_cells(text):
    """Header labels and the grid of cells of a matrix CSV."""
    rows = [line.split(",") for line in text.splitlines()]
    assert rows[0][0] == "name" and [cells[0] for cells in rows[1:]] == rows[0][1:]
    return rows[0][1:], [cells[1:] for cells in rows[1:]]


def test_project_round_trip(tmp_path, dgg):
    out = tmp_path / "w2w.csv"
    assert cli.main(["project", "--mode", "rows", "--output", str(out)]) == 0
    labels, cells = _csv_cells(out.read_text())
    parsed = RfMatrix(labels, [[ratfun_from_str(c) for c in row] for row in cells])
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
        '{"groups": {"G,1": ["W_1"]}, "event_classes": {"c": ["E_1"]}}',
        '{"groups": {"A/B": ["W_1"], "A": ["W_2"]}, "event_classes": {"C": ["E_1"], "B/C": ["E_2"]}}',
        '{"groups": {"G\\n1": ["W_1"]}, "event_classes": {"c\\r": ["E_1"]}}',
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
    assert err.startswith("error: ")


def test_dynamics_undated_input_exit_1(tmp_path, capsys):
    undated = tmp_path / "undated.csv"
    undated.write_text("name,E_1,E_2\nW_1,1,0\nW_2,1,1\n")
    assert cli.main(["dynamics", "--input", str(undated)]) == 1
    assert "error: dynamics requires an incidence file with a date row" in capsys.readouterr().err


def test_missing_input_exit_1(tmp_path):
    assert cli.main(["hierarchy", "--input", str(tmp_path / "nope.csv")]) == 1


def test_reproduce_bundled(capsys):
    assert cli.main(["reproduce"]) == 0
    out = capsys.readouterr().out
    assert "all sections match the checked-in expectations" in out


def test_reproduce_mismatch_names_its_section(monkeypatch, capsys):
    bundle_of = cli.compute_bundle

    def one_count_off(data, groups):
        bundle = bundle_of(data, groups)
        bundle["series"]["G1/joint_events"]["counts"][0] += 1
        return bundle

    monkeypatch.setattr(cli, "compute_bundle", one_count_off)
    assert cli.main(["reproduce"]) == cli.EXIT_MISMATCH == 2
    lines = capsys.readouterr().out.splitlines()
    sections = json.loads(_data_bytes("expected_dgg.json"))
    assert len(sections) > 1
    for section in sections:
        assert f"{section}: {'MISMATCH' if section == 'series' else 'ok'}" in lines


def test_diff_names_length_and_key_differences():
    expected = {"a": [1, 2], "b": {"c": 1}}
    got = {"a": [1], "b": {}, "d": 3}
    assert cli._diff(expected, got) == [
        "a: length 1 != expected 2",
        "b.c: missing key",
        "d: unexpected key",
    ]


def test_reproduce_reports_a_missing_section(monkeypatch, capsys):
    bundle_of = cli.compute_bundle

    def without_series(data, groups):
        bundle = bundle_of(data, groups)
        del bundle["series"]
        return bundle

    monkeypatch.setattr(cli, "compute_bundle", without_series)
    assert cli.main(["reproduce"]) == cli.EXIT_MISMATCH == 2
    lines = capsys.readouterr().out.splitlines()
    assert "series: MISMATCH" in lines
    assert "  series: missing key" in lines


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


def test_dot_directed_when_asymmetric():
    m = RfMatrix(("a", "b"), [[0, 1], [0, 0]])
    text = matrix_to_dot(m)
    assert text.startswith("digraph reduced {\n")
    assert '"a" -> "b"' in text


def test_dot_escapes_quotes_in_labels(tmp_path, capsys):
    csv, keep = tmp_path / "q.csv", tmp_path / "keep.txt"
    csv.write_text('name,E1,E2\nW"a,1,1\nWb,1,0\n')
    keep.write_text('W"a\nWb\nE1\nE2\n')
    assert cli.main(["reduce", "--input", str(csv), "--keep", str(keep), "--format", "dot"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert '  "W\\"a";' in lines
    assert '  "W\\"a" -- "E1" [label="1"];' in lines
    assert '  "W\\"a" -- "E2" [label="1"];' in lines
    # a backslash is doubled first, so a label ending in one still closes its string
    csv.write_text("name,E1,E2\nW\\,1,1\nWb,1,0\n")
    keep.write_text("W\\\nWb\nE1\nE2\n")
    assert cli.main(["reduce", "--input", str(csv), "--keep", str(keep), "--format", "dot"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert '  "W\\\\";' in lines
    assert '  "W\\\\" -- "E1" [label="1"];' in lines


def test_matrix_csv_round_trip_preserves_text(dgg):
    m = project_rows(dgg)
    text = matrix_to_csv(m)
    labels, cells = _csv_cells(text)
    parsed = RfMatrix(labels, [[ratfun_from_str(c) for c in row] for row in cells])
    assert matrix_to_csv(parsed) == text


# -- exact outputs ---------------------------------------------------------------

# sha256 of each output file. A verify report is hashed with each residual
# replaced by its verdict: residuals go through libm log/exp, whose last bit may
# differ between platforms, while the Jacobi eigenvalues use only IEEE operations
# and sqrt.
EXACT_OUTPUTS = {
    "hierarchy-bipartite": "b82bea04dd4ecd9dfb7af37d0d18d08166f69fe1514f7882775126c2e41bbf3b",
    "hierarchy-rows": "7c8f87893d68748e4cb496dda0e8c91cd7008ad5def70b87b2a2b68e8dd6563a",
    "hierarchy-cols": "a2460acb200bcba6aaf683f963d0a27906b6646bddd5b8aa6d6984ee4aa76b82",
    "hierarchy-synth": "5ffebd9a01b49c6d8ae3861159c168c9a2c27cc76743f6bb346b5cc9af82b172",
    "hierarchy-restrict": "b5450c4dc9996e4ad3d9f5c8638374c20c2364e47e8bfa9a33258ab14aaf57a9",
    "reduce-json": "312fdf264458202ed06eab4c48ae9d8ab3b7187c964b3d4115dca43c129677ed",
    "reduce-dot": "19f7ebeb668ffa5f06f9230ab1d428a010f08f8529852b8aecedc774967b215f",
    "project-rows": "17cef80de08c0f75fca745f70659320333172e0102637d6a29180d10c4b80583",
    "project-cols": "6d4c5a90aff034aa496393fda64b78bd864237001b4d168e382b685f8a7ffeda",
    "dynamics-csv": "5c1a4fec369be243bc653422de5ae5e18c23446bf6522be479afbf3f707825e5",
    "dynamics-summary": "0a018a8a07b9c4d189b09e49b6043c00cc76135ea182c0e321821879eb8ce9d8",
    "verify": "4ecdeed31fc93c4d9a7f562eca992e3db15a0a7fa6010db8861ab44a8f0ac6c9",
    "verify-tight": "0d78ca4dbe457b1a964860dd739a9c2fbd12e977db575071af0b5c2f6640ce9e",
}


def test_exact_outputs_unchanged(tmp_path, synth_csv):
    synth, keep, four = synth_csv, tmp_path / "keep.txt", tmp_path / "four.txt"
    keep.write_text("\n".join(BLOCK_KEEP.split()) + "\n")
    four.write_text("W_1\nW_14\nE_5\nE_14\n")
    commands = {
        "hierarchy-bipartite": ["hierarchy"],
        "hierarchy-rows": ["hierarchy", "--mode", "rows"],
        "hierarchy-cols": ["hierarchy", "--mode", "cols"],
        "hierarchy-synth": ["hierarchy", "--input", str(synth)],
        "hierarchy-restrict": ["hierarchy", "--restrict", str(four)],
        "reduce-json": ["reduce", "--keep", str(keep)],
        "reduce-dot": ["reduce", "--keep", str(keep), "--format", "dot"],
        "project-rows": ["project", "--mode", "rows"],
        "project-cols": ["project", "--mode", "cols"],
        "dynamics-csv": ["dynamics", "--summary", str(tmp_path / "dynamics-summary")],
        "verify": ["verify", "--keep", str(keep)],
        "verify-tight": ["verify", "--keep", str(keep), "--tol", "1e-30"],
    }
    for name, argv in commands.items():
        code = 2 if name == "verify-tight" else 0
        assert cli.main([*argv, "--output", str(tmp_path / name)]) == code, name
    for name in ("verify", "verify-tight"):
        path = tmp_path / name
        doc = json.loads(path.read_text())
        for check in doc["checks"]:
            if check["residual"] is not None:
                check["residual"] = check["residual"] < doc["tolerance"]
        path.write_text(json.dumps(doc, indent=2) + "\n")
    got = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in [*commands, "dynamics-summary"]
    }
    assert got == EXACT_OUTPUTS


def test_reduction_path_builds_no_fraction(synth_csv, monkeypatch, dgg_matrix):
    # RatFun keeps its scalar as an int pair; a Fraction is built only at
    # the public boundary, never by reduce or sequential_reduce.
    m = bipartite_adjacency(load_incidence(synth_csv))
    builds = [0]
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        builds[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    assert RatFun.ONE.as_fraction() == 1 and builds == [1]  # the count sees a build
    builds[0] = 0
    assert sequential_reduce(m).step_count == 19
    assert len(isored.reduce(dgg_matrix, BLOCK_KEEP.split()).reduced) == 16
    assert builds == [0]
