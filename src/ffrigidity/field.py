"""Prime-field arithmetic and dense linear algebra over F_q.

Field elements are plain Python integers kept as canonical residues in
[0, q).  Matrices are lists of row lists.  All routines are pure
functions of their inputs, so they are safe to call concurrently.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


class NotAPrime(ValueError):
    """Raised when a modulus is not an odd prime in the supported range."""


def is_odd_prime(n: int) -> bool:
    """Trial-division primality test, restricted to odd candidates."""
    if n < 3 or n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class PrimeField:
    """The field F_q for an odd prime q with 3 <= q < 2**16.

    The upper bound keeps every intermediate product comfortably inside
    machine integer range even when matrices are handed to numpy.
    """

    __slots__ = ("q",)

    def __init__(self, q: int):
        if not isinstance(q, int) or isinstance(q, bool):
            raise NotAPrime(f"modulus must be an integer, got {q!r}")
        if not (3 <= q < 2 ** 16) or not is_odd_prime(q):
            raise NotAPrime(f"modulus must be an odd prime in [3, 2^16), got {q}")
        self.q = q

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.q == self.q

    def __hash__(self):
        return hash(("PrimeField", self.q))

    def __repr__(self):
        return f"PrimeField({self.q})"


def residue_dtype(q: int):
    """The dtype of the pair kernels' residues, each at most q * q - 1:
    uint16 when q * q <= 2**16 (q <= 251), else uint32."""
    assert q * q <= 1 << 32, "pair residues must stay below 2**32"
    return np.uint16 if q * q <= 1 << 16 else np.uint32


@lru_cache(maxsize=32)
def inverse_table(q: int) -> np.ndarray:
    """Read-only array in `residue_dtype(q)` whose entry a is the inverse
    of a mod q (entry 0 is 0), by square-and-multiply on a**(q-2) over
    all residues at once; every product stays below q**2."""
    table = np.ones(q, dtype=residue_dtype(q))
    base = np.arange(q, dtype=table.dtype)
    e = q - 2
    while e:
        if e & 1:
            table = table * base % q
        base = base * base % q
        e >>= 1
    table.setflags(write=False)
    return table


def scale_to_lead(r: np.ndarray, q: int) -> None:
    """Scale each column of a (d+1, N) array of residues in
    `residue_dtype(q)` in place by the inverse of its first nonzero among
    the first d entries (products below q**2); a column without one
    becomes 0.  Reduced as r - (r // q) * q in one temporary, because %
    is slower."""
    lead = r[-2]
    for row in r[-3::-1]:
        lead = np.where(row, row, lead)
    r *= inverse_table(q).take(lead)
    t = r // q
    t *= q
    r -= t


@lru_cache(maxsize=32)
def place_values(q: int) -> np.ndarray:
    """Read-only int64 column q**(k-1), ..., q, 1 for the k base-q digits
    an int64 word holds below 2**63; a word of j digits uses the last j."""
    k = next(k for k in range(1, 64) if q ** (k + 1) >= 2 ** 63)
    places = q ** np.arange(k - 1, -1, -1, dtype=np.int64)[:, None]
    places.setflags(write=False)
    return places


def group_rows(columns, q: int):
    """Group the equal rows of an array of residues mod q, given as its
    (k, N) columns (any integer dtype).

    Returns (first, ids): groups are numbered in lexicographic order of
    their rows, `ids[i]` is the group of row i and `first[g]` is a row
    of group g.  Each row is packed into int64 words, each a big-endian
    base-q number of as many consecutive digits as stay below 2**63,
    built in place by Horner's rule, so np.argsort (for one word) or
    np.lexsort sorts the rows and neighbours that differ start the
    groups.  (A bare np.unique would import numpy.ma on its first call.)
    """
    digits, words = len(place_values(q)), []
    for i in range(0, len(columns), digits):
        word = columns[i].astype(np.int64)
        for column in columns[i + 1:i + digits]:
            word *= q
            word += column
        words.append(word)
    order = np.argsort(words[0]) if len(words) < 2 else np.lexsort(words[::-1])
    starts = np.zeros(len(order), dtype=bool)
    for word in words:
        word = word[order]
        starts[1:] |= word[1:] != word[:-1]
    starts[:1] = True
    ids = np.empty(len(order), dtype=np.int64)
    ids[order] = np.cumsum(starts) - 1
    return order[starts], ids


def rref(mat, field: PrimeField):
    """Reduced row echelon form.

    Returns (rows, pivot_columns) where rows is a tuple of row tuples
    with pivot entries normalized to 1 and zeros above and below every
    pivot.  The result is unique, so it doubles as a canonical form.
    `mat` is a list of row lists or an integer array.

    One Gauss-Jordan loop on an int64 array of residues.  Only the pivot
    column and the pivot row are reduced mod q at each step; the
    rank-one update of the other entries is left unreduced.  Each
    update adds less than q**2 < 2**32 in absolute value, so entries
    stay below (rank + 1) * 2**32, far inside int64, until the final
    reduction.
    """
    q = field.q
    if not len(mat):
        return (), ()
    if isinstance(mat, np.ndarray):
        m = mat.astype(np.int64) % q
    else:
        m = np.array([[x % q for x in row] for row in mat],
                     dtype=np.int64).reshape(len(mat), -1)
    nrows, ncols = m.shape
    inv = inverse_table(q)
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r >= nrows:
            break
        col = m[:, c] % q
        nonzero = np.flatnonzero(col[r:])
        if not nonzero.size:
            continue
        sel = r + int(nonzero[0])
        if sel != r:
            m[[r, sel]] = m[[sel, r]]
            col[[r, sel]] = col[[sel, r]]
        pivot_row = m[r, c:] % q * inv[col[r]] % q
        col[r] = 0
        m[:, c:] -= col[:, None] * pivot_row
        m[r, c:] = pivot_row
        pivots.append(c)
    m %= q
    return tuple(tuple(row) for row in m.tolist()), tuple(pivots)
