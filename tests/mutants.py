"""Committed mutants: named, one-snippet breaks of the kernels, each of which a named test file
must catch.

    python tests/mutants.py [NAME ...]      # every mutant, or the ones named

Each mutant replaces one exact snippet of a file under `src/grouplab`.  The runner applies it to
a copy of `src/` in a temporary directory, never to the checkout, and runs the mutant's test
files against that copy with `-x` under a 60 s timeout.  The mutant is killed when a test fails;
it survives when the tests pass or time out.  The runner exits 1 if any survives.  Tier-1
(`test_mutants.py`) checks only that each snippet occurs exactly once, so the list cannot rot.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 60


class Mutant(NamedTuple):
    name: str
    file: str                # under src/grouplab
    snippet: str             # occurs exactly once in the file
    replacement: str
    tests: tuple[str, ...]   # test files under tests/ that must kill it


MUTANTS = (
    Mutant("chain-composition-order", "groups.py",  # right(s) composed like left(s)
           'for u in (factors if side == "right" else factors[::-1])', "for u in factors[::-1]",
           ("test_columns.py",)),
    Mutant("sift-wrong-level", "groups.py",  # the previous level's transversal
           "u = level[r.index(i)]", "u = self.chain[i - 1][r.index(i)]",
           ("test_columns.py",)),
    Mutant("close-first-generator-only", "groups.py",
           "seen[targets[:, frontier]] = True", "seen[targets[:1, frontier]] = True",
           ("test_groups.py",)),
    Mutant("key-little-endian", "groups.py",  # subgroup keys whose bytes do not sort as the ids
           'np.dtype(t).newbyteorder(">")', 'np.dtype(t).newbyteorder("<")',
           ("test_structure.py",)),
    Mutant("canonical-key-without-size", "structure.py",  # (size, key) order taken from the key alone
           "key=lambda sub: (len(sub), sub._key)", "key=lambda sub: sub._key",
           ("test_structure.py",)),
    Mutant("conjugation-by-the-inverse", "groups.py",  # x -> s x s^-1
           "right, left = g.right(s), g.left(g.inverse[s])", "right, left = g.right(g.inverse[s]), g.left(s)",
           ("test_groups.py",)),
    Mutant("caps-check-at-the-cap", "config.py",
           "if actual > getattr(self, cap):", "if actual >= getattr(self, cap):",
           ("test_corpus_cli.py",)),
)


def source_path(mutant: Mutant, root: Path = ROOT) -> Path:
    return root / "src" / "grouplab" / mutant.file


def run(mutant: Mutant) -> tuple[bool, str]:
    """Whether the mutant is killed, and how."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", copy, ignore=shutil.ignore_patterns("__pycache__"))
        path = source_path(mutant, Path(tmp))
        text = path.read_text(encoding="utf-8")
        if text.count(mutant.snippet) != 1:
            raise SystemExit(f"{mutant.name}: the snippet does not occur exactly once in {mutant.file}")
        path.write_text(text.replace(mutant.snippet, mutant.replacement), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(copy), str(ROOT / "tests")]),
                   PYTHONDONTWRITEBYTECODE="1")
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                *(str(ROOT / "tests" / t) for t in mutant.tests)]
        try:
            done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return False, f"timed out after {TIMEOUT_S} s"
    last = done.stdout.strip().splitlines()[-1:] or ["no output"]
    return done.returncode in (1, 2), f"exit {done.returncode}: {last[0]}"


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        raise SystemExit(f"unknown mutants: {sorted(unknown)}")
    survivors = 0
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        start = time.perf_counter()
        killed, how = run(mutant)
        survivors += not killed
        print(f"{'killed' if killed else 'SURVIVED'} {mutant.name} in {time.perf_counter() - start:.1f} s ({how})")
    return 1 if survivors else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
