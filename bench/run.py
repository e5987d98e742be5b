"""Benchmark of the isoreduce command line, with exact reference checks.

Run from the repository root:

    python3 bench/run.py --workload synth-hierarchy --seed 1 --seconds 30 --trace 0

Each operation runs `python -m isoreduce.cli ...` as a child process with
PYTHONPATH=src. With --trace 0 the run repeats the workload's operation list
(one pass) for --seconds and prints the end-to-end metrics; with --trace 1 it
calls cli.main in-process with the same arguments, once untraced and once
traced per pass, and prints the per-layer metrics. The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib.util
import io
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from typing import Callable

import inputs

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DATA = SRC / "isoreduce" / "data"

SETUP_SAMPLES = 15
OP_TIMEOUT_S = 100.0

@dataclass
class Op:
    """One CLI call. check(exit code, stdout, output file text) gives
    (ok, exact): ok is False for a failed operation; exact is False when an
    exact result differs from its reference."""

    argv: list[str]
    output: Path
    check: Callable[[int, str, str], tuple[bool, bool]]
    verdict: bool = False  # a numeric verdict rather than an exact result


@dataclass
class Outcome:
    code: int
    stdout: str
    text: str
    wall: float = 0.0
    cpu: float = 0.0
    rss_kb: int = 0


def _read(path: Path) -> str:
    return path.read_text(encoding="utf-8") if path.exists() else ""


def _json_or_none(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return None


# -- workloads -----------------------------------------------------------------


def _dgg_reproduce(work: Path) -> tuple[list[Op], Path]:
    expected = json.loads((DATA / "expected_dgg.json").read_text(encoding="utf-8"))
    out = work / "bundle.json"

    def check(code, stdout, text):
        lines = set(stdout.splitlines())
        ok = code == 0 and all(f"{s}: ok" in lines for s in expected) and _json_or_none(text) == expected
        return ok, ok

    return [Op(["reproduce", "--output", str(out)], out, check)], DATA / "dgg.csv"


def _synth_hierarchy(work: Path) -> tuple[list[Op], Path]:
    grid = inputs.random_incidence(inputs.INSTANCE_SEED, inputs.ROWS, inputs.COLS, inputs.DENSITY)
    rows = [f"r{i:02d}" for i in range(inputs.ROWS)]
    cols = [f"c{j:02d}" for j in range(inputs.COLS)]
    src = work / "synth.csv"
    src.write_text(inputs.incidence_csv(rows, cols, grid), encoding="utf-8")
    out = work / "hierarchy.json"

    @functools.cache
    def expected():
        import oracle

        return oracle.min_degree_hierarchy(oracle.bipartite_matrix(grid), rows + cols)

    def check(code, stdout, text):
        ok = code == 0 and _json_or_none(text) == expected()
        return ok, ok

    return [Op(["hierarchy", "--input", str(src), "--output", str(out)], out, check)], src


def _block_reduce_verify(work: Path) -> tuple[list[Op], Path]:
    src, keep = DATA / "dgg.csv", work / "keep.txt"
    rows, cols, grid = inputs.read_incidence(src)
    labels = rows + cols
    removed = inputs.removed_sample(inputs.INSTANCE_SEED, labels, inputs.REMOVE)
    kept = [k for k in range(len(labels)) if k not in removed]
    keep.write_text("".join(labels[k] + "\n" for k in kept), encoding="utf-8")
    reduced, report = work / "reduced.json", work / "verify.json"

    def check_reduce(code, stdout, text):
        import oracle

        got = _json_or_none(text)
        ok = (
            code == 0
            and got is not None
            and got["labels"] == [labels[k] for k in kept]
            and got["removed"] == [labels[k] for k in sorted(removed)]
            and oracle.entries_match(oracle.reduce(oracle.bipartite_matrix(grid), kept), got["entries"])
        )
        return ok, ok

    def check_verify(code, stdout, text):
        # The reduction is exact (check_reduce), so the spectrum is preserved
        # and the only right verdict is a pass.
        got = _json_or_none(text)
        consistent = got is not None and got["passed"] == (code == 0)
        return consistent and code == 0, consistent

    common = ["--input", str(src), "--keep", str(keep)]
    return [
        Op(["reduce", *common, "--output", str(reduced)], reduced, check_reduce),
        Op(["verify", *common, "--output", str(report)], report, check_verify, verdict=True),
    ], src


WORKLOADS = {
    "dgg-reproduce": _dgg_reproduce,
    "synth-hierarchy": _synth_hierarchy,
    "block-reduce-verify": _block_reduce_verify,
}


# -- running -------------------------------------------------------------------


def _child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC))


def _run_child(argv: list[str]) -> tuple[int, str, float, float, int]:
    """Run one child process; exit code, stdout, wall s, cpu s, max RSS KB."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, stderr=subprocess.DEVNULL
    )
    timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        stdout = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        proc.stdout.close()
        if proc.returncode is None:  # interrupted before the child was reaped
            proc.kill()
            proc.wait()
    return proc.returncode, stdout.decode("utf-8", "replace"), wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss


def subprocess_pass(ops: list[Op]) -> list[Outcome]:
    outcomes = []
    for op in ops:
        op.output.unlink(missing_ok=True)
        code, stdout, wall, cpu, rss = _run_child([sys.executable, "-m", "isoreduce.cli", *op.argv])
        outcomes.append(Outcome(code, stdout, _read(op.output), wall, cpu, rss))
    return outcomes


def in_process_pass(main, ops: list[Op]) -> tuple[list[Outcome], float]:
    outcomes = []
    start = time.perf_counter()
    for op in ops:
        op.output.unlink(missing_ok=True)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                code = main(op.argv)
            except Exception:
                code = 1  # the exit code of a child process that raised it
        outcomes.append(Outcome(code, buf.getvalue(), _read(op.output)))
    return outcomes, time.perf_counter() - start


class Checker:
    """Checks every operation of every pass. The first occurrence of each
    output is checked against the reference; repeats reuse its result."""

    def __init__(self, ops: list[Op]):
        self.ops = ops
        self.seen: list[dict] = [{} for _ in ops]
        self.attempted = self.failed = 0
        self.correct = True

    def judge(self, outcomes: list[Outcome]) -> list[bool]:
        oks = []
        for op, seen, out in zip(self.ops, self.seen, outcomes):
            key = (out.code, out.stdout, out.text)
            if key not in seen:
                try:
                    seen[key] = op.check(*key)
                except (KeyError, TypeError, AttributeError, ValueError):
                    seen[key] = (False, False)  # output of the wrong shape or unparsable
            ok, exact = seen[key]
            self.attempted += 1
            self.failed += not ok
            self.correct &= exact
            oks.append(ok)
        return oks


def pass_continues(started: float, pass_walls: list[float], seconds: float) -> bool:
    """Start another pass only if it is expected to end within the budget."""
    if not pass_walls:
        return True
    return time.perf_counter() - started + median(pass_walls) <= seconds


def measure_setup(src: Path) -> float:
    """Median wall time of a fresh process that imports isoreduce, loads the
    input and builds its matrix, and exits without reducing."""
    code = (
        "import sys\n"
        "from isoreduce import netmat\n"
        "netmat.bipartite_adjacency(netmat.load_incidence(sys.argv[1]))\n"
    )
    walls = []
    for _ in range(SETUP_SAMPLES):
        status, _, wall, _, _ = _run_child([sys.executable, "-c", code, str(src)])
        if status != 0:
            raise RuntimeError(f"set-up process exited with {status}")
        walls.append(wall)
    return median(walls)


def run_timed(ops: list[Op], src: Path, seconds: float) -> tuple[Checker, dict, dict]:
    """Times are medians over passes of a pass's summed wall or cpu time.

    Other tenants of a shared machine slow a process down for seconds to
    minutes at a time. Over six sets of ten runs on 2 shared CPUs, 2 of 18
    workload sets spread by more than a quarter of their median with the
    median pass, against 4 of 18 with the fastest pass; the fastest pass was
    steadier in most sets only on dgg-reproduce, a 0.5 s pass.
    """
    setup_s = measure_setup(src)
    passes = []
    started = time.perf_counter()
    pass_walls: list[float] = []
    while pass_continues(started, pass_walls, seconds):
        passes.append(subprocess_pass(ops))
        pass_walls.append(sum(o.wall for o in passes[-1]))
    per_op = list(zip(*passes))
    checker = Checker(ops)
    for outcomes in passes:
        checker.judge(outcomes)
    metrics = {
        "wall_s": median(pass_walls),
        "cpu_s": median(sum(o.cpu for o in p) for p in passes),
        "peak_rss_mb": median(max(o.rss_kb for o in p) for p in passes) / 1024.0,
        "setup_s": setup_s,
        "ops_ok_share": (checker.attempted - checker.failed) / checker.attempted,
    }
    samples = {"passes": len(passes), "op_wall_s": [[round(o.wall, 4) for o in runs] for runs in per_op]}
    return checker, metrics, samples


def run_traced(ops: list[Op], seconds: float) -> tuple[Checker, dict, dict]:
    import tracer as tr

    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import isoreduce
    import isoreduce.cli

    import_s = time.perf_counter() - start
    runs, pass_walls = [], []
    started = time.perf_counter()
    while pass_continues(started, pass_walls, seconds):
        plain, plain_wall = in_process_pass(isoreduce.cli.main, ops)
        tracer = tr.Tracer()
        with tracer.installed(isoreduce):
            traced, traced_wall = in_process_pass(tracer.span("cli.main", isoreduce.cli.main), ops)
        sample = tr.layer_metrics(tracer)
        sample["cli.import_s"] = import_s
        sample["cli.output_bytes"] = sum(len(o.stdout.encode()) + len(o.text.encode()) for o in traced)
        sample["trace.overhead_s"] = traced_wall - plain_wall
        runs.append((plain, traced, sample))
        pass_walls.append(plain_wall + traced_wall)
    # Checked after timing: the reference checks load sympy, whose heap
    # would slow the garbage collector in later in-process passes.
    checker = Checker(ops)
    for plain, traced, sample in runs:
        checker.judge(plain)
        oks = checker.judge(traced)
        # A failed verdict is wrong when the exact results it certifies are right.
        confirmed = all(ok for op, ok in zip(ops, oks) if not op.verdict)
        wrong = sum(1 for op, ok in zip(ops, oks) if op.verdict and not ok)
        sample["spectra.wrong_verdicts"] = wrong if confirmed else 0
    samples = {"passes": len(runs), "pass_wall_s": [round(w, 4) for w in pass_walls]}
    return checker, tr.median_metrics([sample for _, _, sample in runs]), samples


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env=dict(os.environ, GIT_DIR=str(ROOT / ".git")), timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1, help="run label, recorded; the instance is fixed")
    p.add_argument("--seconds", type=float, default=30.0, help="measuring time of one run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer traced pass")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "isoreduce" / "cli.py").is_file():
        print(f"error: no isoreduce sources under {SRC}", file=sys.stderr)
        return 2
    if importlib.util.find_spec("sympy") is None:
        print("error: sympy is required for the reference checks", file=sys.stderr)
        return 2
    load_before = os.getloadavg()
    (ROOT / ".isobench").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".isobench"))
    try:
        ops, src = WORKLOADS[args.workload](work)
        if args.trace:
            checker, metrics, samples = run_traced(ops, args.seconds)
        else:
            checker, metrics, samples = run_timed(ops, src, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "instance_seed": inputs.INSTANCE_SEED,
        "sizes": {"rows": inputs.ROWS, "cols": inputs.COLS, "density": inputs.DENSITY, "remove": inputs.REMOVE},
        "trace": args.trace,
        "seconds": args.seconds,
        **samples,
        "ops_per_pass": len(ops),
        "setup_samples": 0 if args.trace else SETUP_SAMPLES,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _git_commit(),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
    }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m for m in spec["per_layer" if args.trace else "end_to_end"]}
    if declared.keys() != metrics.keys():
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(declared)}")
    print("env " + json.dumps(env))
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {declared[name]['unit']} ({declared[name]['better']} is better)")
    print(f"ops attempted {checker.attempted}, failed {checker.failed}, exact results correct: {checker.correct}")
    print(json.dumps({
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": declared[name]["unit"]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
