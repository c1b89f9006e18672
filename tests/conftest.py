import pytest

from grouplab.corpus import bundled_corpus
from grouplab.groups import build_group

_Q8 = [[2, 3, 1, 0, 6, 7, 5, 4], [4, 5, 7, 6, 1, 0, 2, 3]]
_D4XQ8 = [[1, 2, 3, 0] + list(range(4, 12)), [3, 2, 1, 0] + list(range(4, 12))]
_D4XQ8 += [list(range(4)) + [4 + v for v in p] for p in _Q8]
_PERM_GROUPS = {  # name -> (degree, generators)
    "S5": (5, [[1, 0, 2, 3, 4], [1, 2, 3, 4, 0]]),
    "S6": (6, [[1, 0, 2, 3, 4, 5], [1, 2, 3, 4, 5, 0]]),
    "D4xQ8": (12, _D4XQ8),
}


@pytest.fixture(scope="session")
def corpus():
    return bundled_corpus()


@pytest.fixture(scope="session")
def perm_group():
    """Build one of _PERM_GROUPS by name."""
    def build(name):
        degree, gens = _PERM_GROUPS[name]
        return build_group(generators=gens, degree=degree, name=name)
    return build
