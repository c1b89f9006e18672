"""The bundled small-group corpus, JSON corpus files, and bundled towers.

Group file format: {"name": str, "order": int, "table": [[int]]} ("order"
optional) or {"name": str, "degree": int, "generators": [[int]]} with 0-based
permutation images.  A corpus directory holds one file per group plus
index.json listing names, orders and file names ("name" and "order" optional).

A loaded corpus is built and checked whole, so a bad file fails the job.  The
bundled corpus knows each member's name and order up front and builds a
member, and checks its order, on first read: a job pays only for the groups
it reads.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator

from .config import DEFAULT_CAPS, Caps
from .errors import ValidationError, parsing, read_json
from .groups import FiniteGroup, Subgroup, build_group, subgroup_closure

if TYPE_CHECKING:
    from .towers import InverseSystem

# the two forms of a group file and the corpus index, as `read_json` shapes
GROUP_SHAPE = ({"table": 2, "name": str, "order?": 0}, {"generators": [1], "name": str, "degree": 0})
INDEX_SHAPE = [{"file": str, "name?": str, "order?": 0}]

__all__ = [
    "Corpus",
    "bundled_corpus",
    "bundled_towers",
    "load_corpus",
    "load_group_file",
    "save_corpus",
]


class Corpus:
    """An ordered name -> group mapping, sorted by (order, name).

    Members in `groups` are held as given.  Members in `orders` are known by
    name and order only, and `build(name)` builds each on its first read, so
    `names()`, `len()`, `in` and `index()` build nothing.
    """

    def __init__(self, groups: dict[str, FiniteGroup], *, orders: dict[str, int] | None = None,
                 build: Callable[[str], FiniteGroup] | None = None):
        known = {name: g.order for name, g in groups.items()} | (orders or {})
        self._orders = dict(sorted(known.items(), key=lambda kv: (kv[1], kv[0])))
        self._groups = dict(groups)
        self._build = build

    def __len__(self) -> int:
        return len(self._orders)

    def __contains__(self, name: str) -> bool:
        return name in self._orders

    def __getitem__(self, name: str) -> FiniteGroup:
        if name not in self._orders:
            raise ValidationError(f"unknown group {name!r}")
        if name not in self._groups:
            self._groups[name] = self._build(name)
        return self._groups[name]

    def names(self) -> list[str]:
        return list(self._orders)

    def items(self) -> list[tuple[str, FiniteGroup]]:
        return [(name, self[name]) for name in self._orders]

    def __iter__(self) -> Iterator[tuple[str, FiniteGroup]]:
        return iter(self.items())

    def index(self) -> list[tuple[str, int]]:
        return list(self._orders.items())


def _cycle(n: int) -> list[int]:
    return [(i + 1) % n for i in range(n)]


def _quaternion_generators() -> tuple[int, list[list[int]]]:
    # units 1, -1, i, -i, j, -j, k, -k as ids 0..7; left multiplication perms
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    base = {
        ("i", "i"): "-1", ("j", "j"): "-1", ("k", "k"): "-1",
        ("i", "j"): "k", ("j", "k"): "i", ("k", "i"): "j",
        ("j", "i"): "-k", ("k", "j"): "-i", ("i", "k"): "-j",
    }

    def mul(a: str, b: str) -> str:
        sign = 1
        if a.startswith("-"):
            sign, a = -sign, a[1:]
        if b.startswith("-"):
            sign, b = -sign, b[1:]
        if a == "1":
            out = b
        elif b == "1":
            out = a
        else:
            out = base[(a, b)]
        if out.startswith("-"):
            sign, out = -sign, out[1:]
        return out if sign > 0 else f"-{out}"

    idx = {s: i for i, s in enumerate(names)}
    gens = []
    for gen in ("i", "j"):
        gens.append([idx[mul(gen, x)] for x in names])
    return len(names), gens


def _heisenberg27_generators() -> tuple[int, list[list[int]]]:
    # triples (a, b, c) mod 3 with (a,b,c)*(a',b',c') = (a+a', b+b', c+c'+a*b')
    def eid(a: int, b: int, c: int) -> int:
        return (a % 3) * 9 + (b % 3) * 3 + (c % 3)

    def mul(x: tuple[int, int, int], y: tuple[int, int, int]) -> tuple[int, int, int]:
        return ((x[0] + y[0]) % 3, (x[1] + y[1]) % 3, (x[2] + y[2] + x[0] * y[1]) % 3)

    elems = [(a, b, c) for a in range(3) for b in range(3) for c in range(3)]
    gens = []
    for gen in ((1, 0, 0), (0, 1, 0)):
        gens.append([eid(*mul(gen, e)) for e in elems])
    return 27, gens


def _exponent9_extraspecial_generators() -> tuple[int, list[list[int]]]:
    # a of order 9, b of order 3, with b^-1 a b = a^4 (so b^j a^k = a^(k*7^j) b^j)
    def eid(i: int, j: int) -> int:
        return (i % 9) * 3 + (j % 3)

    def mul(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
        i, j = x
        k, l = y
        return ((i + k * pow(7, j, 9)) % 9, (j + l) % 3)

    elems = [(i, j) for i in range(9) for j in range(3)]
    gens = []
    for gen in ((1, 0), (0, 1)):
        gens.append([eid(*mul(gen, e)) for e in elems])
    return 27, gens


def _bundled_builders() -> list[tuple[str, int, int, list[list[int]]]]:
    """(name, order, degree, generators) of each bundled group."""
    out = [(f"Z{n}", n, n, [] if n == 1 else [_cycle(n)]) for n in range(1, 17)]
    out.append(("V4", 4, 4, [[1, 0, 3, 2], [2, 3, 0, 1]]))
    out.append(("S3", 6, 3, [[1, 0, 2], [1, 2, 0]]))
    out.append(("D4", 8, 4, [[1, 2, 3, 0], [3, 2, 1, 0]]))
    out.append(("Q8", 8, *_quaternion_generators()))
    out.append(("A4", 12, 4, [[1, 0, 3, 2], [1, 2, 0, 3]]))
    out.append(("S4", 24, 4, [[1, 0, 2, 3], [1, 2, 3, 0]]))
    out.append(("A5", 60, 5, [[1, 2, 3, 4, 0], [1, 2, 0, 3, 4]]))
    out.append(("Heis27", 27, *_heisenberg27_generators()))
    out.append(("M27", 27, *_exponent9_extraspecial_generators()))
    return out


def bundled_corpus(*, caps: Caps = DEFAULT_CAPS) -> Corpus:
    """The in-tree corpus: each member is built from permutation generators, and its order
    checked, on first read.

    A member whose order is above `caps.order` fails on its first read, in its permutation
    closure, so a job fails only on the members it reads.
    """
    builders = {name: (order, degree, gens) for name, order, degree, gens in _bundled_builders()}

    def build(name: str) -> FiniteGroup:
        order, degree, gens = builders[name]
        g = build_group(generators=gens, degree=degree, name=name, caps=caps)
        if g.order != order:
            raise ValidationError(f"bundled group {name} has order {g.order}, expected {order}")
        return g

    return Corpus({}, orders={name: order for name, (order, _, _) in builders.items()}, build=build)


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write one JSON file per group plus index.json."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    index = []
    for name, g in corpus.items():
        fname = f"{name}.json"
        if g.perm_generators is not None:
            payload = {
                "name": name,
                "degree": g.perm_generators.degree,
                "generators": [list(p) for p in g.perm_generators.perms],
            }
        else:
            payload = {"name": name, "order": g.order, "table": g.table.tolist()}
        (root / fname).write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
        index.append({"name": name, "order": g.order, "file": fname})
    (root / "index.json").write_text(json.dumps(index, sort_keys=True), encoding="utf-8")


def load_group_file(path: str | Path, *, caps: Caps = DEFAULT_CAPS) -> FiniteGroup:
    payload = read_json(path, GROUP_SHAPE)
    with parsing(path):
        if "table" in payload:
            g = build_group(table=payload["table"], name=payload["name"], caps=caps)
            if payload.get("order", g.order) != g.order:
                raise ValidationError("declared order does not match the table")
            return g
        return build_group(generators=payload["generators"], degree=payload["degree"],
                           name=payload["name"], caps=caps)


def load_corpus(path: str | Path, *, caps: Caps = DEFAULT_CAPS) -> Corpus:
    """Load and validate a corpus directory; errors name the offending file."""
    root = Path(path)
    if not root.is_dir():
        raise ValidationError(f"corpus path {root} is not a directory")
    index_path = root / "index.json"
    groups: dict[str, FiniteGroup] = {}
    if index_path.exists():
        entries = read_json(index_path, INDEX_SHAPE)
    else:
        entries = [{"file": f.name} for f in sorted(root.glob("*.json"))]
    for i, entry in enumerate(entries):
        fname = entry["file"]
        if fname == "index.json":
            continue
        if not (root / fname).is_file():
            raise ValidationError(f"index.json: [{i}].file: no such file {fname!r}")
        g = load_group_file(root / fname, caps=caps)
        for key, actual in (("order", g.order), ("name", g.name)):
            if entry.get(key, actual) != actual:
                raise ValidationError(f"index.json: [{i}].{key}: {entry[key]!r} != {actual!r}, "
                                      f"the {key} of {fname}")
        if g.name in groups:
            raise ValidationError(f"{fname}: duplicate group name {g.name!r}")
        groups[g.name] = g
    if not groups:
        warnings.warn(f"corpus directory {root} is empty", stacklevel=2)
    return Corpus(groups)


def bundled_towers(corpus: Corpus | None = None, *, caps: Caps = DEFAULT_CAPS
                   ) -> dict[str, InverseSystem]:
    """The three reference towers used by the verification suite."""
    from .towers import coset_action_system, direct_power_system

    corpus = bundled_corpus(caps=caps) if corpus is None else corpus
    out: dict[str, InverseSystem] = {}

    z8 = corpus["Z8"]
    two = subgroup_closure(z8, [2])
    four = subgroup_closure(z8, [4])
    chain = [z8.whole_subgroup(), two, four, z8.trivial_subgroup()]
    out["z8-chain"] = coset_action_system(z8, chain, caps=caps).system

    s3 = corpus["S3"]
    a3 = _alternating_subgroup(s3)
    out["s3-cosets"] = coset_action_system(
        s3, [s3.whole_subgroup(), a3, s3.trivial_subgroup()], caps=caps).system

    a5 = corpus["A5"]
    out["a5-square"] = direct_power_system(a5, 2, caps=caps)
    return out


def _alternating_subgroup(s3: FiniteGroup) -> Subgroup:
    # the unique subgroup of index 2: generated by any element of order 3
    for x in range(1, s3.order):
        if s3.element_order(x) == 3:
            return subgroup_closure(s3, [x])
    raise ValidationError("no order-3 element found")
