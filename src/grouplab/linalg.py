"""Dense linear algebra over prime fields, on numpy integer matrices.

Matrices are 2-d int arrays with entries reduced mod p.  Row vectors act on
the right throughout the package: v @ M.  Also the integer helpers on
primes that the group and ring modules share.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError


def prime_power_base(n: int) -> int | None:
    """The prime p with n = p**a for some a >= 1, or None when n is no prime power."""
    if n < 2:
        return None
    p = next((q for q in range(2, int(n**0.5) + 1) if n % q == 0), n)  # the least prime factor
    return p if split_prime_power(n, p)[1] == 1 else None


def is_prime(p: int) -> bool:
    return prime_power_base(p) == p


def split_prime_power(n: int, p: int) -> tuple[int, int]:
    """(a, m) with n = p**a * m and m not divisible by p."""
    a = 0
    while n % p == 0:
        n //= p
        a += 1
    return a, n


def rref_gfp(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over GF(p); returns (rref, pivot columns).  Each pivot is the
    first nonzero entry of its column at or below the next row, and clears its column from
    every other row in one update."""
    m = np.array(mat, dtype=np.int64) % p
    pivots: list[int] = []
    for c in range(m.shape[1]):
        r = len(pivots)
        if r == m.shape[0]:
            break
        below = np.flatnonzero(m[r:, c])
        if below.size == 0:
            continue
        m[[r, r + below[0]]] = m[[r + below[0], r]]
        m[r] = m[r] * pow(int(m[r, c]), -1, p) % p
        factors = m[:, c].copy()
        factors[r] = 0
        m -= np.outer(factors, m[r])
        m %= p
        pivots.append(c)
    return m, pivots


def rank_gfp(mat: np.ndarray, p: int) -> int:
    if mat.size == 0:
        return 0
    _, pivots = rref_gfp(mat, p)
    return len(pivots)


def nullspace_gfp(mat: np.ndarray, p: int) -> np.ndarray:
    """Basis of {x : x @ mat.T == 0}, i.e. the right nullspace, rows = basis."""
    m = np.asarray(mat)
    rows, cols = m.shape
    rref, pivots = rref_gfp(m, p)
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for k, fc in enumerate(free):
        basis[k, fc] = 1
        for r, pc in enumerate(pivots):
            basis[k, pc] = (-rref[r, fc]) % p
    return basis % p


def inv_gfp(a: np.ndarray, p: int) -> np.ndarray:
    a = np.asarray(a) % p
    n = a.shape[0]
    aug = np.concatenate([a, np.eye(n, dtype=np.int64)], axis=1)
    rref, pivots = rref_gfp(aug, p)
    if pivots != list(range(n)):
        raise ValidationError("matrix is singular over GF(p)")
    return rref[:, n:] % p
