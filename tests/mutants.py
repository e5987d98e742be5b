"""The mutation gate: small deliberate faults that named tests must catch.

Each mutant is one textual replacement in one program file, with the tests
that must fail on it. Run it from anywhere with

    python tests/mutants.py

For each mutant the runner copies src, tests, bench, pyproject.toml and
README.md into a temporary directory (without caches), replaces the old text,
which must occur exactly once, and runs only the named tests there with
`python -m pytest -q -x -p no:cacheprovider`. A mutant counts as killed only
when pytest exits 1, that is when the tests ran and one failed. A survivor, a
stale old text and any other exit code (a collection error, an internal
error, an interruption) fail the gate. Warnings stay warnings: the runner
drops PYTHONWARNINGS and passes no -W, so a warning turned error cannot pass
for a kill. Needs only the standard library besides the test tools.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "bench", "pyproject.toml", "README.md")
CACHES = shutil.ignore_patterns("__pycache__", "*.pyc", ".hypothesis", ".pytest_cache")

EXACTNUM = "src/isoreduce/exactnum.py"
T_EXACTNUM = "tests/test_exactnum.py::"
FAST_OPS = T_EXACTNUM + "test_fast_ops_agree_with_plain_cross_multiplication"

# (name, file, old text, new text, node ids of the tests that must fail)
MUTANTS = [
    (
        "_poly leaves the content's gcd with q in the scalar",
        EXACTNUM,
        "    h = math.gcd(g, q)\n",
        "    h = 1\n",
        (T_EXACTNUM + "test_scalar_stays_a_coprime_int_pair",),
    ),
    (
        "__add__ swaps the operands but not their scalars",
        EXACTNUM,
        "            a, b, u, v = b, a, v, u\n",
        "            a, b = b, a\n",
        (FAST_OPS,),
    ),
    (
        "_gcd_cof never cancels",
        EXACTNUM,
        "    if len(a) == 1 or len(b) == 1:\n        return (1,), a, b\n",
        "    if True:\n        return (1,), a, b\n",
        (FAST_OPS,),
    ),
    (
        "_gcd_cof returns b undivided",
        EXACTNUM,
        "            return h, ca, cb\n",
        "            return h, ca, b\n",
        (T_EXACTNUM + "test_gcd_cof_matches_sympy_over_zz",),
    ),
    (
        "__sub__ adds",
        EXACTNUM,
        "        return self + (-other)\n",
        "        return self + other\n",
        (FAST_OPS,),
    ),
    (
        "__truediv__ keeps the sign of a negative divisor in the denominator",
        EXACTNUM,
        "        if p < 0:  # keep the inverse's denominator positive\n            p, q = -p, -q\n",
        "",
        (T_EXACTNUM + "test_scalar_stays_a_coprime_int_pair",),
    ),
    (
        "num drops the sign",
        EXACTNUM,
        "        return _poly([p * v for v in self._n], self._q * self._d[-1])\n",
        "        return _poly([abs(p) * v for v in self._n], self._q * self._d[-1])\n",
        (T_EXACTNUM + "test_text_round_trip",),
    ),
    (
        "the gcd memo is keyed on a alone",
        EXACTNUM,
        "@functools.lru_cache(maxsize=2048)\n"
        "def _gcd_cof_cached(a: tuple[int, ...], b: tuple[int, ...])",
        "@functools.lru_cache(maxsize=2048)\n"
        "def _keyed_on_a(a):\n"
        "    return _gcd_cof(a, _beside[0])\n"
        "\n"
        "\n"
        "def _gcd_cof_cached(a, b):\n"
        "    _beside[:] = [b]\n"
        "    return _keyed_on_a(a)\n"
        "\n"
        "\n"
        "_beside = [None]\n"
        "_gcd_cof_cached.cache_info = _keyed_on_a.cache_info\n"
        "_gcd_cof_cached.cache_clear = _keyed_on_a.cache_clear\n"
        "\n"
        "\n"
        "def _unused(a: tuple[int, ...], b: tuple[int, ...])",
        (T_EXACTNUM + "test_block_reduce_equal_with_cold_and_warm_memo",),
    ),
    (
        "reduce skips the mirror write of a symmetric update",
        "src/isoreduce/isored.py",
        "                    e[j][i] = e[i][j]\n",
        "                    pass\n",
        (
            "tests/test_isored.py::"
            "test_reduce_matches_block_formula_on_symmetric_and_rational_matrices",
        ),
    ),
    (
        "sym_eigenvalues is off by 1e-6",
        "src/isoreduce/spectra.py",
        "            return sorted(a[i][i] for i in range(n))\n",
        "            return sorted(a[i][i] + 1e-6 for i in range(n))\n",
        ("tests/test_spectra.py::test_jacobi_against_charpoly_roots",),
    ),
    (
        "min_degree_rule keeps the minimum-degree nodes too",
        "src/isoreduce/hierarchy.py",
        "if d > lowest)",
        "if d >= lowest)",
        ("tests/test_hierarchy.py::test_path_core_is_middle",),
    ),
    (
        "classify_activity counts a row at the mean as active",
        "src/isoreduce/dynamics.py",
        "if sum(row) * n > total",
        "if sum(row) * n >= total",
        ("tests/test_dynamics.py::test_uniform_matrix_has_no_standouts",),
    ),
]


def apply(root: Path, path: str, old: str, new: str) -> None:
    """Replace old by new in root/path; old must occur exactly once."""
    target = root / path
    text = target.read_text(encoding="utf-8")
    count = text.count(old)
    if count != 1:
        raise ValueError(f"{path}: the old text occurs {count} times, not once: {old!r}")
    target.write_text(text.replace(old, new), encoding="utf-8")


def run(path: str, old: str, new: str, nodes) -> tuple[int, str]:
    """pytest's exit code and output on the named tests of a mutated copy."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name in COPIED:
            if (ROOT / name).is_dir():
                shutil.copytree(ROOT / name, root / name, ignore=CACHES)
            else:
                shutil.copy2(ROOT / name, root / name)
        apply(root, path, old, new)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
        env["PYTHONPATH"] = str(root / "src")
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *nodes]
        done = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
        return done.returncode, done.stdout + done.stderr


def main() -> int:
    failed = 0
    for name, path, old, new, nodes in MUTANTS:
        start = time.perf_counter()
        try:
            code, output = run(path, old, new, nodes)
        except ValueError as err:
            code, output = None, str(err)
        seconds = time.perf_counter() - start
        verdict = "killed" if code == 1 else "survived" if code == 0 else "error"
        print(f"{verdict:8} exit {code}  {seconds:6.1f} s  {name}", flush=True)
        if code != 1:
            failed += 1
            print(output[-3000:], flush=True)
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
