import os

import pytest
from hypothesis import settings

from grouplab.corpus import bundled_corpus
from grouplab.groups import FiniteGroup, Subgroup, build_group
from grouplab.towers import coset_action_system

# HYPOTHESIS_PROFILE=wide searches ten times as many examples, still reproducibly
settings.register_profile("wide", max_examples=10 * settings.default.max_examples, derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

_Q8 = [[2, 3, 1, 0, 6, 7, 5, 4], [4, 5, 7, 6, 1, 0, 2, 3]]
_D4XQ8 = [[1, 2, 3, 0] + list(range(4, 12)), [3, 2, 1, 0] + list(range(4, 12))]
_D4XQ8 += [list(range(4)) + [4 + v for v in p] for p in _Q8]
_A5 = [[1, 2, 3, 4, 0], [1, 2, 0, 3, 4]]
_PERM_GROUPS = {  # name -> (degree, generators)
    "S5": (5, [[1, 0, 2, 3, 4], [1, 2, 3, 4, 0]]),
    "S6": (6, [[1, 0, 2, 3, 4, 5], [1, 2, 3, 4, 5, 0]]),
    "D4xQ8": (12, _D4XQ8),
    "A5xA5": (10, [p + list(range(5, 10)) for p in _A5] + [list(range(5)) + [5 + v for v in p] for p in _A5]),
    "S7": (7, [[1, 0, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5, 6, 0]]),
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


def s6_stabiliser_chain(s6: FiniteGroup) -> list[Subgroup]:
    """The stabilisers in S6 of none, 0, {0, 1} and {0, 1, 2}, as the benchmark's tower file has them."""
    perms = [s6.permutation_of(x) for x in s6.elements()]
    return [Subgroup(s6, [x for x, p in enumerate(perms) if all(p[a] == a for a in range(depth))])
            for depth in range(4)]


def s6_tower_levels(s6: FiniteGroup) -> list[FiniteGroup]:
    """S6 acting on the cosets of its stabiliser chain in turn: degrees 1, 7, 37 and 157, the
    last two above the int64-key degree."""
    return list(coset_action_system(s6, s6_stabiliser_chain(s6)).system.levels)
