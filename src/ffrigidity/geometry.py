"""Points, spheres, hyperplanes and codimension-2 flats over F_q^d.

Points are tuples of canonical residues.  The quadratic form is the
sum of squared coordinates, and a sphere S(c, r) is the set of x with
||x - c|| = r, where r is a form value (not a squared length; squaring
the "radius" is not meaningful over a finite field).

Hyperplanes and projective directions are kept in a canonical scaling
with first nonzero coordinate 1, so tuple equality is geometric
equality and lexicographic tuple order gives deterministic tie-breaks.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .field import PrimeField, group_rows, rref, scale_to_lead

ENUMERATION_CAP = 1 << 24


class SpaceTooLarge(ValueError):
    """Raised when an exhaustive enumeration would exceed the point cap."""


class AmbientSpace(NamedTuple):
    field: PrimeField
    d: int

    @property
    def q(self) -> int:
        return self.field.q

    @property
    def size(self) -> int:
        return self.q ** self.d


def make_space(q: int, d: int) -> AmbientSpace:
    if d < 3:
        raise ValueError(f"dimension must be at least 3, got {d}")
    return AmbientSpace(PrimeField(q), d)


class Sphere(NamedTuple):
    center: tuple
    r: int


class Hyperplane(NamedTuple):
    normal: tuple
    offset: int


class Flat(NamedTuple):
    """Codimension-2 flat, stored as the reduced row echelon form of its
    rank-2 augmented constraint system [rows | values]."""
    rows: tuple
    values: tuple


class _Outcome:
    __slots__ = ("_name",)

    def __init__(self, name):
        self._name = name

    def __repr__(self):
        return self._name


PARALLEL_DISJOINT = _Outcome("ParallelDisjoint")
IDENTICAL = _Outcome("Identical")


def quad_norm(x, q: int) -> int:
    """Sum of squared coordinates mod q."""
    return sum(c * c for c in x) % q


def sphere_contains(s: Sphere, x, q: int) -> bool:
    return quad_norm(tuple((a - b) % q for a, b in zip(x, s.center)), q) == s.r


def canonical_hyperplane(coeffs, rhs: int, q: int) -> Hyperplane:
    """Hyperplane {x : <coeffs, x> = rhs} in canonical scaling."""
    v = [c % q for c in coeffs]
    lead = next((c for c in v if c != 0), None)
    if lead is None:
        raise ValueError("hyperplane needs a nonzero normal vector")
    if lead != 1:
        s = pow(lead, q - 2, q)
        v = [(c * s) % q for c in v]
        rhs = rhs * s
    return Hyperplane(tuple(v), rhs % q)


def hyperplane_contains(h: Hyperplane, x, q: int) -> bool:
    return sum(a * b for a, b in zip(h.normal, x)) % q == h.offset


def radical_hyperplane(s1: Sphere, s2: Sphere, q: int):
    """Bisector hyperplane containing the intersection of two spheres.

    Subtracting the two sphere equations cancels the quadratic term and
    leaves 2<c2 - c1, x> = (r1 - r2) + ||c2|| - ||c1||.  Returns None
    for concentric spheres, where no hyperplane exists.
    """
    if tuple(a % q for a in s1.center) == tuple(a % q for a in s2.center):
        return None
    coeffs = [2 * (b - a) % q for a, b in zip(s1.center, s2.center)]
    rhs = (s1.r - s2.r + quad_norm(s2.center, q) - quad_norm(s1.center, q)) % q
    return canonical_hyperplane(coeffs, rhs, q)


@lru_cache(maxsize=32)
def pair_indices(n: int):
    """Read-only np.triu_indices(n, 1): the pairs i < j of a family of n
    spheres, in the order every per-pair array of the family uses.
    Cached, because a run meets only a few family sizes."""
    pairs = np.triu_indices(n, k=1)
    for a in pairs:
        a.setflags(write=False)
    return pairs


def radical_hyperplanes(spheres, q: int, d: int):
    """Bisector hyperplanes of every sphere pair i < j, in one array pass.

    Pair k is the k-th pair of `pair_indices(len(spheres))`.  Row by
    row this is `radical_hyperplane`, the scalar oracle of the tests:
    2(c_j - c_i) and r_i - r_j + ||c_j|| - ||c_i||, scaled by the
    inverse of the lead, on uint32 residues (pair sums below 2q,
    products below q**2 <= 2**32).  Returns (bisectors, index): each
    distinct bisector once as an int64 row (normal, offset), rows in
    Hyperplane tuple order, and `index[k]`, the row of pair k or -1 for
    a concentric pair, which has no bisector; with fewer than two
    spheres both are empty, the rows still d + 1 wide.
    """
    n = len(spheres)
    if n < 2:
        return (np.zeros((0, d + 1), dtype=np.int64),
                np.zeros(0, dtype=np.int64))
    assert q < 1 << 16, "pair residues must stay below 2**32"
    aug = np.asarray([(*s.center, s.r) for s in spheres], dtype=np.int64) % q
    c, radii = aug[:, :d], aug[:, d]
    # column k is [2c | ||c|| - r] mod q of sphere k, and pair (i, j)
    # gets column j + (q - column i), a non-negative sum
    cols = (np.concatenate([2 * c.T, [(c * c).sum(axis=1) - radii]])
            % q).astype(np.uint32)
    i, j = pair_indices(n)
    r = cols.take(j, axis=1)
    r += (q - cols).take(i, axis=1)
    r -= r // q * q
    scale_to_lead(r, q)
    first, index = group_rows(r, q)
    # concentric pairs have no lead: their zero columns are group 0
    if not r[:, first[0]].any():
        first, index = first[1:], index - 1
    return np.ascontiguousarray(r.take(first, axis=1).T, dtype=np.int64), index


def flat_from_pair(h1: Hyperplane, h2: Hyperplane, field: PrimeField):
    """Canonical intersection flat of two hyperplanes.

    Returns IDENTICAL for equal hyperplanes, PARALLEL_DISJOINT for
    distinct parallel ones, and a Flat otherwise.  Canonical hyperplanes
    are parallel exactly when their normal tuples coincide.

    `pipeline.flat_profile` never calls it (it reduces one pair per
    candidate witness in closed form); it is the oracle its tests and
    acceptance criterion 7 check that against, as `hyperplane_contains`
    is kept beside `hyperplane_incidence`.
    """
    if h1 == h2:
        return IDENTICAL
    if h1.normal == h2.normal:
        return PARALLEL_DISJOINT
    aug = [list(h1.normal) + [h1.offset], list(h2.normal) + [h2.offset]]
    rows, pivots = rref(aug, field)
    d = len(h1.normal)
    return Flat(rows=tuple(r[:d] for r in rows),
                values=tuple(r[d] for r in rows))


def flat_contained_in(flat: Flat, h: Hyperplane, field: PrimeField) -> bool:
    """Whether the flat lies inside the hyperplane.

    True exactly when the hyperplane equation is a combination of the
    flat's two constraints, i.e. stacking it does not raise the rank.
    """
    stacked = [list(r) + [v] for r, v in zip(flat.rows, flat.values)]
    stacked.append(list(h.normal) + [h.offset])
    _, pivots = rref(stacked, field)
    return len(pivots) == 2


def point_grid(q: int, d: int) -> np.ndarray:
    """All q**d points as an integer array in lexicographic order."""
    if q ** d > ENUMERATION_CAP:
        raise SpaceTooLarge(f"q^{d} = {q ** d} exceeds the enumeration cap")
    grid = np.indices((q,) * d, dtype=np.int64).reshape(d, -1).T.copy()
    grid.setflags(write=False)
    return grid


def points_array(points, d: int) -> np.ndarray:
    """Points as an int64 (|P|, d) array; an int64 array is not copied."""
    arr = np.asarray(points, dtype=np.int64)
    if arr.size == 0:
        arr = arr.reshape(0, d)
    return arr


# Cells per row block of the incidence kernels: each block's float64
# sums and quotients then take at most 256 KiB apiece, whatever |P| is.
_BLOCK_CELLS = 1 << 15


def _vanishing(pts: np.ndarray, forms: np.ndarray, col_terms: np.ndarray,
               q: int, row_terms: np.ndarray | None = None) -> np.ndarray:
    """Boolean matrix whose [i, j] entry says
    pts[i] . forms[j] + row_terms[i] + col_terms[j] = 0 (mod q),
    without a row term when row_terms is None.

    The kernels reduce their coordinates mod q first, so the absolute
    values of the terms of a sum add up to less than 4*d*q*q + q: every
    partial sum is an integer that float64 holds exactly, in any
    summation order, and so is the sum v.  The sums are one float64 BLAS
    product of the rows [x | 1 | row term] and the columns
    [form | col term | 1], row block by row block of at most 2**15
    cells, so no |P| x m temporary is built.  An entry is divisible by q
    exactly when v == rint(v * (1/q)) * q: the right side is always an
    exact multiple of q, and when q divides v the rounded quotient is
    exact, because its error stays below 1/2 while 4*d*q*q < 2**50.
    """
    n, (m, d) = len(pts), forms.shape
    assert 4 * d * q * q < 1 << 50, "modulus too large for exact float64 sums"
    out = np.empty((n, m), dtype=bool)
    k = d + 1 if row_terms is None else d + 2
    rows = np.empty((n, k))
    rows[:, :d] = pts
    rows[:, d] = 1
    cols = np.empty((k, m))
    cols[:d] = forms.T
    cols[d] = col_terms
    if row_terms is not None:
        rows[:, d + 1] = row_terms
        cols[d + 1] = 1
    step = max(1, _BLOCK_CELLS // m)
    inv = 1.0 / q
    for start in range(0, n, step):
        v = rows[start:start + step] @ cols
        t = v * inv
        np.rint(t, out=t)
        t *= q
        np.equal(v, t, out=out[start:start + step])
        del v, t  # freed before the next block allocates its own
    return out


def hyperplane_incidence(pts, hyperplanes, q: int) -> np.ndarray:
    """Boolean |P| x |H| matrix whose [i, j] entry says <n_j, x_i> = b_j.

    pts is an integer array of shape (|P|, d) or a sequence of points;
    hyperplanes is a sequence of Hyperplanes or an integer array of rows
    (normal, offset).
    """
    if not len(hyperplanes):
        return np.zeros((len(pts), 0), dtype=bool)
    if not isinstance(hyperplanes, np.ndarray):
        hyperplanes = [(*h.normal, h.offset) for h in hyperplanes]
    aug = np.asarray(hyperplanes, dtype=np.int64) % q
    d = aug.shape[1] - 1
    return _vanishing(points_array(pts, d) % q, aug[:, :d], -aug[:, d], q)


def sphere_incidence(pts, spheres, q: int) -> np.ndarray:
    """Boolean |P| x |S| matrix whose [i, j] entry says ||x_i - c_j|| = r_j.

    The form is expanded as ||x|| - 2<x, c> + ||c||, so no |P| x |S| x d
    difference array is built: the point norms are the row terms and
    ||c|| - r the column terms of `_vanishing`.
    """
    if not spheres:
        return np.zeros((len(pts), 0), dtype=bool)
    aug = np.asarray([(*s.center, s.r) for s in spheres], dtype=np.int64) % q
    centers = aug[:, :-1]
    pts = points_array(pts, centers.shape[1]) % q
    return _vanishing(pts, -2 * centers,
                      (centers * centers).sum(axis=1) - aug[:, -1], q,
                      row_terms=(pts * pts).sum(axis=1))


# The most multiply-adds of one BLAS product in `incidence_gram`.
# OpenBLAS runs a product below about 2**20 of them on the calling
# thread; a larger one wakes its helper threads, and on a shared 2-CPU
# host it then takes from 0.3 to 8 ms at (245 x 251).T @ (245 x 251)
# while a single thread takes 0.65 ms in 2**19-sized strips.
PRODUCT_MACS = 1 << 19


def incidence_gram(inc: np.ndarray) -> np.ndarray:
    """Column Gram matrix inc.T @ inc of a boolean incidence matrix.

    Entry [a, b] counts the rows incident to both columns a and b.  It is
    a float32 BLAS product (numpy's integer matmul has no BLAS kernel),
    which is exact: every partial sum is an integer of at most the row
    count, and float32 holds every integer below 2**24.  It goes in
    column strips of at most `PRODUCT_MACS` multiply-adds, each on the
    calling thread, unless strips would be under 8 columns wide, which
    costs more than the helper threads: at 2000 x 120, 1.8 ms against
    0.5 ms for one product.
    """
    assert inc.shape[0] < 1 << 24, "too many rows for an exact float32 Gram"
    x = inc.astype(np.float32)
    n, m = x.shape
    step = PRODUCT_MACS // max(1, n * m)
    if step < 8:
        return (x.T @ x).astype(np.int64)
    gram = np.empty((m, m), dtype=np.int64)
    for start in range(0, m, step):
        gram[:, start:start + step] = x.T @ x[:, start:start + step]
    return gram


def hyperplane_points(h: Hyperplane, space: AmbientSpace):
    pts = point_grid(space.q, space.d)
    sel = pts[hyperplane_incidence(pts, [h], space.q)[:, 0]]
    return [tuple(int(c) for c in row) for row in sel]


def flat_points(flat: Flat, space: AmbientSpace):
    """All q**(d-2) points of the flat, in lexicographic order."""
    pts = point_grid(space.q, space.d)
    constraints = [Hyperplane(r, v) for r, v in zip(flat.rows, flat.values)]
    sel = pts[hyperplane_incidence(pts, constraints, space.q).all(axis=1)]
    return [tuple(int(c) for c in row) for row in sel]


@lru_cache(maxsize=32)
def all_projective_directions(q: int, d: int) -> np.ndarray:
    """Canonical representatives of P^(d-1)(F_q), first nonzero
    coordinate 1, as a read-only int64 (N, d) array of lexicographically
    sorted rows: one block per lead position, the last position first,
    each block a 1 after the leading zeros and then a `point_grid` tail,
    so the cap on the grid bounds the table.  The longest tail is built
    first, so a table past the cap fails before any block is made."""
    blocks = []
    for lead in range(d - 1):
        tail = point_grid(q, d - 1 - lead)
        head = np.zeros((len(tail), lead + 1), dtype=np.int64)
        head[:, lead] = 1
        blocks.append(np.concatenate([head, tail], axis=1))
    blocks.append(np.eye(1, d, d - 1, dtype=np.int64))
    dirs = np.concatenate(blocks[::-1])
    dirs.setflags(write=False)
    return dirs
