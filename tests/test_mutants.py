"""The committed mutants of `mutants.py` still apply: each snippet occurs exactly once in its
file, and each names test files that exist.  CI runs the mutants themselves."""

from mutants import MUTANTS, ROOT, source_path


def test_every_mutant_snippet_occurs_exactly_once():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for mutant in MUTANTS:
        assert source_path(mutant).read_text(encoding="utf-8").count(mutant.snippet) == 1, mutant.name
        assert mutant.snippet != mutant.replacement, mutant.name
        assert mutant.tests and all((ROOT / "tests" / t).is_file() for t in mutant.tests), mutant.name
