"""Seeded benchmark inputs: corpus directories, a tower file, an action file, a power spec.

Every generated group is given in generator form.  The seed relabels its
points by a random conjugation and then mixes the generating tuple by
product replacement (each step keeps the generated group), so element ids
differ from seed to seed while every reported value stays the same.

Run as a script with the checkout's ``src`` on ``PYTHONPATH``:

    python3 perfbench/inputs.py --seed 7 --dir OUT

The tower file lists element ids, so that one step imports grouplab and
reads the ids back from the group the CLI itself will build.
"""

from __future__ import annotations

import argparse
import json
import random
from pathlib import Path

Perm = tuple[int, ...]

# Q8 acting on itself by left multiplication (units 1, -1, i, -i, j, -j, k, -k).
_Q8 = [(2, 3, 1, 0, 6, 7, 5, 4), (4, 5, 7, 6, 1, 0, 2, 3)]


def _shift(perm: Perm, by: int, degree: int) -> Perm:
    """`perm` acting on points by..by+len(perm)-1 of a larger point set."""
    out = list(range(degree))
    for i, v in enumerate(perm):
        out[by + i] = by + v
    return tuple(out)


def _transposition(a: int, b: int, degree: int) -> Perm:
    out = list(range(degree))
    out[a], out[b] = b, a
    return tuple(out)


def _cycle(n: int) -> Perm:
    return tuple((i + 1) % n for i in range(n))


def _symmetric(n: int) -> tuple[int, list[Perm]]:
    return n, [_transposition(0, 1, n), _cycle(n)]


_A5 = [(1, 2, 3, 4, 0), (1, 2, 0, 3, 4)]
_D4 = [(1, 2, 3, 0), (3, 2, 1, 0)]

# name -> (degree, standard generators, expected order)
GROUPS: dict[str, tuple[int, list[Perm], int]] = {
    "Z2^5": (10, [_transposition(2 * i, 2 * i + 1, 10) for i in range(5)], 32),
    "D4xQ8": (12, [_shift(p, 0, 12) for p in _D4] + [_shift(p, 4, 12) for p in _Q8], 64),
    "S5": (*_symmetric(5), 120),
    "S6": (*_symmetric(6), 720),
    "A5xA5": (10, [_shift(p, 0, 10) for p in _A5] + [_shift(p, 5, 10) for p in _A5], 3600),
    "S7": (*_symmetric(7), 5040),
}

CORPORA = {
    "lattice": ("Z2^5", "D4xQ8", "S5"),
    "large": ("A5xA5", "S7"),
    "s6": ("S6",),
}

MIXING_STEPS = 60  # product-replacement steps per generating tuple
TOWER_FILE = "s6-stabilisers.json"
ACTION_FILE = "z4-regular-gf5.json"
POWER_SPEC = "gf9-spec.json"


def _mul(p: Perm, q: Perm) -> Perm:
    """The product convention of grouplab: (p * q)(x) = p(q(x))."""
    return tuple(p[x] for x in q)


def _inv(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def _order(degree: int, gens: list[Perm]) -> int:
    ident = tuple(range(degree))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for cur in frontier:
            for g in gens:
                new = _mul(cur, g)
                if new not in seen:
                    seen.add(new)
                    nxt.append(new)
        frontier = nxt
    return len(seen)


def scrambled_generators(rng: random.Random, degree: int, gens: list[Perm]) -> list[Perm]:
    """Conjugate by a random point relabelling, then mix by product replacement.

    The tuple holds one slot more than `gens` (starting at the identity), so
    its length, and with it the cost of closing it, is the same for every seed.
    """
    sigma = list(range(degree))
    rng.shuffle(sigma)
    sigma_t = tuple(sigma)
    sigma_inv = _inv(sigma_t)
    slots = [_mul(_mul(sigma_t, g), sigma_inv) for g in gens] + [tuple(range(degree))]
    for _ in range(MIXING_STEPS):
        i, j = rng.sample(range(len(slots)), 2)
        other = slots[j] if rng.random() < 0.5 else _inv(slots[j])
        slots[i] = _mul(slots[i], other) if rng.random() < 0.5 else _mul(other, slots[i])
    return slots


def _write_json(path: Path, payload: object) -> None:
    path.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")


def _write_corpus(root: Path, names: tuple[str, ...], gens_of: dict[str, list[Perm]]) -> None:
    root.mkdir(parents=True)
    index = []
    for name in names:
        degree, _, order = GROUPS[name]
        fname = f"{name}.json"
        _write_json(root / fname, {"name": name, "degree": degree,
                                   "generators": [list(p) for p in gens_of[name]]})
        index.append({"name": name, "order": order, "file": fname})
    _write_json(root / "index.json", index)


def _stabiliser_chain_ids(corpus_dir: Path, name: str, points: list[int]) -> list[list[int]]:
    """Element ids of G > G_a > G_ab > G_abc in the labelling grouplab gives G."""
    from grouplab import load_corpus

    g = load_corpus(corpus_dir)[name]
    perms = [g.permutation_of(x) for x in g.elements()]
    chain = []
    for depth in range(len(points) + 1):
        fixed = points[:depth]
        chain.append([x for x, p in enumerate(perms) if all(p[a] == a for a in fixed)])
    return chain


def generate(seed: int, out: Path) -> None:
    rng = random.Random(seed)
    gens_of = {}
    for name, (degree, gens, order) in GROUPS.items():
        mixed = scrambled_generators(rng, degree, gens)
        if _order(degree, mixed) != order:
            raise RuntimeError(f"{name}: scrambled generators give the wrong order")
        gens_of[name] = mixed
    for corpus, names in CORPORA.items():
        _write_corpus(out / corpus, names, gens_of)

    points = rng.sample(range(6), 3)
    chain = _stabiliser_chain_ids(out / "s6", "S6", points)
    sizes = [len(c) for c in chain]
    if sizes != [720, 120, 24, 6]:
        raise RuntimeError(f"S6 stabiliser chain has sizes {sizes}")
    _write_json(out / TOWER_FILE, {"group": "S6", "chain": chain})

    # Regular module of Z4 over GF(5): a generator of the bundled Z4 (id 1 or
    # its inverse 3) acts by the cyclic shift, in a seed-chosen basis order.
    gen_id = rng.choice((1, 3))
    basis = list(range(4))
    rng.shuffle(basis)
    shift = [[0] * 4 for _ in range(4)]
    for i in range(4):
        shift[basis[i]][basis[(i + 1) % 4]] = 1
    _write_json(out / ACTION_FILE, {"group": "Z4", "p": 5, "dim": 4,
                                    "matrices": {str(gen_id): shift}})

    _write_json(out / POWER_SPEC, {"field": "GF9", "atoms": 3,
                                   "constraints": [{"points": [0], "subfield": "GF3"}]})


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True, help="empty or missing output directory")
    args = parser.parse_args()
    generate(args.seed, Path(args.dir))


if __name__ == "__main__":
    main()
