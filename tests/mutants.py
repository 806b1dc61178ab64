"""Planted changes that the tests must catch, and a runner that replays them.

Each record is one edit to a file under src/ or tests/: the exact old text,
which must occur in the file exactly once, the new text, and the test node
ids that must fail once the edit is made. Run

    python tests/mutants.py [id ...]

to replay every record, or those named. The runner copies src/, tests/ and
pytest.ini to a temporary directory, checks that the unmutated copy passes
every named test, then, one record at a time, applies the edit to a fresh
copy, runs its tests there in a subprocess and prints "killed" (each named
test fails), "survived" (one passes) or "stale" (the old text does not
occur exactly once). The exit status is 0 only if every record is killed.
tests/test_mutants.py checks, without running anything, that every record
still applies.
"""
from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Mutant:
    id: str
    file: str                   # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]      # node ids; a bare name covers its parameters


MUTANTS = (
    Mutant("crossing-skips-a-zero-at-a-node", "src/nkshoot/integrate.py",
           "if x > 0.0 >= vals[i]]", "if x > 0.0 > vals[i]]",
           ("tests/test_integrate.py::"
            "test_node_pass_equals_the_array_oracle_on_random_steps",)),
    Mutant("crossing-either-way", "src/nkshoot/integrate.py",
           "if x > 0.0 >= vals[i]]",
           "if x > 0.0 >= vals[i] or x < 0.0 <= vals[i]]",
           ("tests/test_integrate.py::"
            "test_every_row_stops_the_run_where_it_falls_through_zero",
            "tests/test_integrate.py::"
            "test_node_pass_equals_the_array_oracle_on_random_steps")),
    Mutant("symmetry-word-drops-empty-parts", "src/nkshoot/state.py",
           'parts = word.split(".")',
           'parts = [p for p in word.split(".") if p]',
           ("tests/test_state.py::test_symmetry_word_with_an_empty_part",)),
    Mutant("existence-check-passes-nan", "src/nkshoot/geometry.py",
           "if not arg < math.pi:", "if arg >= math.pi:",
           ("tests/test_geometry.py::"
            "test_comparison_bounds_raise_on_a_nan_node[time]",)),
    Mutant("mean-curvature-check-passes-nan", "src/nkshoot/geometry.py",
           "if not l_slack >= -COMPARISON_TOL",
           "if l_slack < -COMPARISON_TOL",
           ("tests/test_geometry.py::"
            "test_comparison_bounds_raise_on_a_nan_node[state]",)),
    Mutant("find-matching-dense-grid", "src/nkshoot/shoot.py",
           "n_samples: int = 4, order: int = DEFAULT_ORDER,",
           "n_samples: int = 12, order: int = DEFAULT_ORDER,",
           ("tests/test_shoot.py::test_default_matching_solves",)),
    Mutant("segments-cross-unscaled", "src/nkshoot/shoot.py",
           "x1, y1, x2, y2, xr, yr = (math.ldexp(v, scale) for v in d)",
           "x1, y1, x2, y2, xr, yr = d",
           ("tests/test_properties.py::"
            "test_segments_cross_agrees_with_exact_arithmetic",)),
    Mutant("root-xtol-loose", "src/nkshoot/shoot.py",
           "ROOT_XTOL = 1e-14", "ROOT_XTOL = 1e-8",
           ("tests/test_shoot.py::"
            "test_table2_roots_agree_with_an_independent_scipy_path",)),
    Mutant("matching-tolerances-loose", "src/nkshoot/shoot.py",
           "MATCH_RESIDUAL = 1e-9\n"
           "MATCH_STEP_TOL = math.sqrt(np.finfo(float).eps)",
           "MATCH_RESIDUAL = 1e-6\nMATCH_STEP_TOL = 1e-4",
           ("tests/test_shoot.py::"
            "test_table2_roots_agree_with_an_independent_scipy_path",)),
)


def _copy(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=skip)
    shutil.copy(ROOT / "pytest.ini", dest)


def _failed(root: Path, tests: tuple[str, ...]) -> list[str]:
    """The named tests with a failure or error when run in the copy at
    root: a bare name fails if any of its parameters does."""
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p",
         "no:cacheprovider", *tests], cwd=root, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")}).stdout
    bad = re.findall(r"^(?:FAILED|ERROR) (\S+)", out, re.MULTILINE)
    return [t for t in tests
            if any(b == t or b.startswith(t + "[") for b in bad)]


def replay(mutants=MUTANTS) -> dict[str, str]:
    """Each record's id and its outcome: killed, survived or stale."""
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp, "base")
        _copy(base)
        tests = tuple(dict.fromkeys(t for m in mutants for t in m.tests))
        failed = _failed(base, tests)
        if failed:
            raise SystemExit(f"the unmutated copy fails: {failed}")
        for k, m in enumerate(mutants):
            path = Path(tmp, str(k))
            _copy(path)
            text = (path / m.file).read_text()
            if text.count(m.old) != 1:
                results[m.id] = "stale"
                continue
            (path / m.file).write_text(text.replace(m.old, m.new))
            killed = len(_failed(path, m.tests)) == len(m.tests)
            results[m.id] = "killed" if killed else "survived"
    return results


def main(ids: list[str]) -> int:
    known = {m.id: m for m in MUTANTS}
    unknown = [i for i in ids if i not in known]
    if unknown:
        raise SystemExit(f"unknown mutant ids: {unknown}")
    results = replay([known[i] for i in ids] if ids else MUTANTS)
    for mid, outcome in results.items():
        print(f"{outcome:8} {mid}")
    return 0 if all(r == "killed" for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
