"""Command-line front end: ingestion, subcommand dispatch, serialization.

Exit codes: 0 success, 1 I/O or parse failure, 2 verification or golden
mismatch, 3 computation failure (a singular pivot, a pole, an eigenvalue
iteration that does not converge, a broken stage partition), 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import dynamics as dyn
from . import hierarchy as hier
from . import isored, netmat, spectra
from .exactnum import ratfun_to_str
from .netmat import IncidenceData, IncidenceFormatError, RfMatrix

__all__ = ["UsageError", "parse_args", "main", "entrypoint"]

EXIT_OK = 0
EXIT_IO = 1
EXIT_MISMATCH = 2
EXIT_COMPUTE = 3
EXIT_USAGE = 64


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _data_path(name: str) -> Path:
    return Path(__file__).with_name("data") / name


def _add_common(p, with_mode=True):
    p.add_argument("--input", help="incidence CSV (default: the bundled dgg.csv)")
    p.add_argument("--output", help="output path (default: standard output)")
    if with_mode:
        p.add_argument(
            "--mode",
            choices=("bipartite", "rows", "cols"),
            default="bipartite",
            help="matrix to build from the incidence data",
        )


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite positive number, not {text!r}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="isoreduce", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", metavar="COMMAND", required=True)

    p = sub.add_parser("reduce", help="one isospectral reduction over a kept node set")
    _add_common(p)
    p.add_argument("--keep", required=True, help="file with one kept label per line")
    p.add_argument("--format", dest="fmt", choices=("json", "dot"), default="json")

    p = sub.add_parser("hierarchy", help="sequential reduction under the min-degree rule")
    _add_common(p)
    p.add_argument("--restrict", help="file of labels; restrict the hierarchy to them")

    p = sub.add_parser("project", help="single-mode projection of the incidence data")
    _add_common(p, with_mode=False)
    p.add_argument("--mode", choices=("rows", "cols"), required=True)

    p = sub.add_parser("dynamics", help="chronological attendance series and statistics")
    _add_common(p, with_mode=False)
    p.add_argument("--groups", help="JSON with group and event-class definitions")
    p.add_argument("--summary", help="path for the summary JSON (default: stdout)")

    p = sub.add_parser("verify", help="numeric spectrum-preservation check")
    _add_common(p)
    p.add_argument("--keep", required=True, help="file with one kept label per line")
    p.add_argument("--tol", dest="tolerance", type=_tolerance, default=1e-6)

    p = sub.add_parser("reproduce", help="recompute the bundled dataset's results and diff")
    p.add_argument("--output", help="path for the recomputed results JSON (default: not written)")

    return parser


def parse_args(argv) -> argparse.Namespace:
    return _build_parser().parse_args(argv)


# -- shared helpers ------------------------------------------------------------


def _load_input(path: str | None) -> IncidenceData:
    return netmat.load_incidence(_data_path("dgg.csv") if path is None else path)


def _build_matrix(data: IncidenceData, mode: str) -> RfMatrix:
    if mode == "bipartite":
        return netmat.bipartite_adjacency(data)
    if mode == "rows":
        return netmat.project_rows(data)
    return netmat.project_cols(data)


def _read_labels(path: str) -> list[str]:
    out = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            out.append(line)
    return out


def _emit(text: str, output: str | None):
    if output is None:
        sys.stdout.write(text)
    else:
        Path(output).write_text(text, encoding="utf-8")


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _entry_texts(m: RfMatrix) -> list[list[str]]:
    return [[ratfun_to_str(v) for v in row] for row in m.entries]


def matrix_to_csv(m: RfMatrix) -> str:
    lines = ["name," + ",".join(m.labels)]
    for label, row in zip(m.labels, _entry_texts(m)):
        lines.append(label + "," + ",".join(row))
    return "\n".join(lines) + "\n"


def matrix_to_dot(m: RfMatrix) -> str:
    """DOT text, graph name ``reduced``, with exact edge weights; self-loops included."""
    symmetric = m.is_symmetric()
    kind, arrow = ("graph", "--") if symmetric else ("digraph", "->")
    ids = ['"' + label.replace('"', '\\"') + '"' for label in m.labels]
    lines = [f"{kind} reduced {{"]
    lines.extend(f"  {node};" for node in ids)
    n = len(ids)
    for i in range(n):
        start = i if symmetric else 0
        for j in range(start, n):
            v = m.entries[i][j]
            if not v.is_zero:
                lines.append(f'  {ids[i]} {arrow} {ids[j]} [label="{ratfun_to_str(v)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def reduction_json(r: isored.ReductionResult) -> dict:
    return {
        "labels": list(r.reduced.labels),
        "entries": _entry_texts(r.reduced),
        "removed": list(r.removed),
    }


def _trace_json(h: hier.HierarchyResult) -> list[dict]:
    return [
        {"step": step, "degrees": dict(t.degrees), "removed": list(t.removed)}
        for step, t in enumerate(h.trace)
    ]


def hierarchy_json(h: hier.HierarchyResult) -> dict:
    ranked = list(enumerate(h.levels, start=1))  # rank 1 borders the core
    return {
        "core": list(h.core),
        "levels": [{"rank": k, "members": list(level)} for k, level in reversed(ranked)],
        "trace": _trace_json(h),
    }


def spectrum_json(r: spectra.SpectrumReport) -> dict:
    return {
        "eigenvalues_full": [c.eigenvalue for c in r.checks],
        "eigenvalues_removed_block": list(r.eigenvalues_removed_block),
        "tolerance": r.tolerance,
        "exclusion_gap": spectra.EXCLUSION_GAP,
        "passed": r.passed,
        "checks": [
            {
                "eigenvalue": c.eigenvalue,
                "excluded": c.excluded,
                "residual": None if math.isnan(c.residual) else c.residual,
            }
            for c in r.checks
        ],
    }


# -- subcommands ---------------------------------------------------------------


def _cmd_reduce(cfg: argparse.Namespace) -> int:
    data = _load_input(cfg.input)
    m = _build_matrix(data, cfg.mode)
    keep = _read_labels(cfg.keep)
    result = isored.reduce(m, keep)
    if cfg.fmt == "dot":
        _emit(matrix_to_dot(result.reduced), cfg.output)
    else:
        _emit(_json_text(reduction_json(result)), cfg.output)
    return EXIT_OK


def _cmd_hierarchy(cfg: argparse.Namespace) -> int:
    data = _load_input(cfg.input)
    m = _build_matrix(data, cfg.mode)
    result = hier.sequential_reduce(m)
    if cfg.restrict:
        result = hier.restrict_hierarchy(result, _read_labels(cfg.restrict))
    _emit(_json_text(hierarchy_json(result)), cfg.output)
    return EXIT_OK


def _cmd_project(cfg: argparse.Namespace) -> int:
    data = _load_input(cfg.input)
    m = _build_matrix(data, cfg.mode)
    _emit(matrix_to_csv(m), cfg.output)
    return EXIT_OK


def _names_to_label_lists(obj) -> bool:
    return isinstance(obj, dict) and all(
        isinstance(labels, list) and all(isinstance(lab, str) for lab in labels)
        for labels in obj.values()
    )


def _load_groups(path: str | None) -> dict:
    source = _data_path("dgg_groups.json") if path is None else Path(path)
    spec = json.loads(source.read_text(encoding="utf-8"))
    if not (
        isinstance(spec, dict)
        and _names_to_label_lists(spec.get("groups"))
        and _names_to_label_lists(spec.get("event_classes"))
    ):
        raise ValueError(
            "group file needs 'groups' and 'event_classes' objects mapping names to label lists"
        )
    # a name is a CSV cell and half of a summary key "group/class"
    for name in (*spec["groups"], *spec["event_classes"]):
        if any(c in name for c in ",/\r\n"):
            raise ValueError(f"group file needs names without ',', '/' or line breaks: {name!r}")
    return spec


def _attendance_series(data: IncidenceData, spec: dict):
    """(group, event class, events in date order, counts) for each pair in the spec."""
    for gname, members in spec["groups"].items():
        for cname, events in spec["event_classes"].items():
            ordered = dyn.chronological_order(data, events)
            yield gname, cname, ordered, dyn.group_attendance(data, members, ordered)


def _series_json(counts: tuple[int, ...]) -> dict:
    """The counts of one series, with exact mean and sample variance from two counts on."""
    out: dict = {"counts": list(counts)}
    if len(counts) >= 2:
        mean, var = dyn.series_stats(counts)
        out["mean"] = str(mean)
        out["sample_variance"] = str(var)
    return out


def _cmd_dynamics(cfg: argparse.Namespace) -> int:
    data = _load_input(cfg.input)
    if data.dates is None:
        raise ValueError("dynamics requires an incidence file with a date row")
    lines = ["group,event_class,event,date,count"]
    summary: dict[str, dict] = {}
    for gname, cname, ordered, counts in _attendance_series(data, _load_groups(cfg.groups)):
        for event, count in zip(ordered, counts):
            d = data.date_of(event)
            lines.append(f"{gname},{cname},{event},{d.month}/{d.day},{count}")
        summary[f"{gname}/{cname}"] = _series_json(counts)
    _emit("\n".join(lines) + "\n", cfg.output)
    _emit(_json_text(summary), cfg.summary)
    return EXIT_OK


def _cmd_verify(cfg: argparse.Namespace) -> int:
    data = _load_input(cfg.input)
    m = _build_matrix(data, cfg.mode)
    keep = _read_labels(cfg.keep)
    report = spectra.verify_spectrum(m, keep, tol=cfg.tolerance)
    _emit(_json_text(spectrum_json(report)), cfg.output)
    return EXIT_OK if report.passed else EXIT_MISMATCH


# -- reproduce -----------------------------------------------------------------


def _hier_summary(h: hier.HierarchyResult) -> dict:
    return {
        "core": list(h.core),
        "levels": [list(level) for level in h.levels],
    }


def compute_bundle(data: IncidenceData, groups: dict) -> dict:
    """Everything the bundled dataset is expected to reproduce, as one dict."""
    m = netmat.bipartite_adjacency(data)
    h = hier.sequential_reduce(m)
    rows_proj, cols_proj = netmat.project_rows(data), netmat.project_cols(data)
    women = list(data.row_labels)
    events = list(data.col_labels)
    active, popular = dyn.classify_activity(data)
    level_means = {
        name: {mode: str(v) for mode, v in modes.items()}
        for name, modes in dyn.level_mean_attendance(data, h).items()
    }
    bundle = {
        "hierarchy": _hier_summary(h),
        "trace": _trace_json(h),
        "restricted_to_rows": _hier_summary(hier.restrict_hierarchy(h, women)),
        "restricted_to_cols": _hier_summary(hier.restrict_hierarchy(h, events)),
        "restricted_groups": {
            gname: _hier_summary(hier.restrict_hierarchy(h, members))
            for gname, members in groups["groups"].items()
        },
        "rows_mode_hierarchy": _hier_summary(hier.sequential_reduce(rows_proj)),
        "cols_mode_hierarchy": _hier_summary(hier.sequential_reduce(cols_proj)),
        "rows_projection": [[int(v.as_fraction()) for v in row] for row in rows_proj.entries],
        "cols_projection": [[int(v.as_fraction()) for v in row] for row in cols_proj.entries],
        "series": {
            f"{g}/{c}": {"events": ordered, **_series_json(counts)}
            for g, c, ordered, counts in _attendance_series(data, groups)
        },
        "active_rows": sorted(active),
        "popular_cols": sorted(popular),
        "level_mean_attendance": level_means,
    }
    return bundle


def _diff(expected, got, path="") -> list[str]:
    if isinstance(expected, dict) and isinstance(got, dict):
        out = []
        for key in sorted(set(expected) | set(got)):
            sub = f"{path}.{key}" if path else key
            if key not in expected:
                out.append(f"{sub}: unexpected key")
            elif key not in got:
                out.append(f"{sub}: missing key")
            else:
                out.extend(_diff(expected[key], got[key], sub))
        return out
    if isinstance(expected, list) and isinstance(got, list):
        if len(expected) != len(got):
            return [f"{path}: length {len(got)} != expected {len(expected)}"]
        out = []
        for i, (e, g) in enumerate(zip(expected, got)):
            out.extend(_diff(e, g, f"{path}[{i}]"))
        return out
    if expected != got:
        return [f"{path}: {got!r} != expected {expected!r}"]
    return []


def _cmd_reproduce(cfg: argparse.Namespace) -> int:
    data = _load_input(None)
    bundle = compute_bundle(data, _load_groups(None))
    expected = json.loads(_data_path("expected_dgg.json").read_text(encoding="utf-8"))
    if cfg.output:
        Path(cfg.output).write_text(_json_text(bundle), encoding="utf-8")
    mismatches = _diff(expected, bundle)
    for section in expected:
        print(f"{section}: {'ok' if bundle.get(section) == expected[section] else 'MISMATCH'}")
    if mismatches:
        print(f"{len(mismatches)} value(s) differ from the checked-in expectations:")
        for m in mismatches[:50]:
            print("  " + m)
        return EXIT_MISMATCH
    print("all sections match the checked-in expectations")
    return EXIT_OK


_COMMANDS = {
    "reduce": _cmd_reduce,
    "hierarchy": _cmd_hierarchy,
    "project": _cmd_project,
    "dynamics": _cmd_dynamics,
    "verify": _cmd_verify,
    "reproduce": _cmd_reproduce,
}


def main(argv=None) -> int:
    try:
        cfg = parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[cfg.subcommand](cfg)
    except IncidenceFormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ArithmeticError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
