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

from .field import PrimeField, group_rows, residue_dtype, rref, scale_to_lead

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


def radical_hyperplanes(spheres, q: int):
    """Bisector hyperplanes of every pair i < j of the int64 (n, d+1)
    sphere rows (center, r), such as `Config.sphere_array`, in one array
    pass; pair k is the k-th pair of `pair_indices(n)`.

    Row by row this is `radical_hyperplane`, the scalar oracle of the
    tests: 2(c_j - c_i) and r_i - r_j + ||c_j|| - ||c_i||, scaled by the
    inverse of the lead, on residues in `field.residue_dtype(q)` (pair
    sums below 2q, products below q**2).  Returns (bisectors, index): each
    distinct bisector once as an int64 row (normal, offset), rows in
    Hyperplane tuple order, and `index[k]`, the row of pair k or -1 for
    a concentric pair, which has no bisector; with fewer than two
    spheres both are empty, the rows still d + 1 wide.
    """
    n, d = len(spheres), spheres.shape[1] - 1
    if n < 2:
        return (np.zeros((0, d + 1), dtype=np.int64),
                np.zeros(0, dtype=np.int64))
    aug = spheres % q
    c, radii = aug[:, :d], aug[:, d]
    # column k is [2c | ||c|| - r] mod q of sphere k, and pair (i, j)
    # gets column j + (q - column i), a non-negative sum
    cols = (np.concatenate([2 * c.T, [(c * c).sum(axis=1) - radii]])
            % q).astype(residue_dtype(q))
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


# Cells per row block of the incidence kernels and `incidence_counts`:
# up to 2**11 columns, each kernel's two float buffers then take at most
# 128 KiB apiece (64 KiB in float32), allocated once per call, whatever
# |P| is.  Wider blocks keep _MIN_BLOCK_ROWS rows: one-row blocks spent
# more on per-call overhead than on their cells (the kernel ran 1.5x and
# the column counts 2.5x slower at 2000 x 10457), and a buffer of 8 rows
# takes at most 64 bytes a column, 64/|P| of the |P| x m boolean result.
_BLOCK_CELLS = 1 << 14
_MIN_BLOCK_ROWS = 8


def _block_rows(m: int) -> int:
    """Rows per block of a kernel or count over m columns."""
    return max(_MIN_BLOCK_ROWS, _BLOCK_CELLS // max(m, 1))


def lift(pts, q: int) -> np.ndarray:
    """The lifted points [x mod q | ||x|| mod q | 1] of an integer (n, d)
    array, as int64 (n, d+2) rows, the one form the incidence kernels
    read.  x is reduced first, so ||x|| < d*q*q in int64 for any input."""
    rows = np.ones((len(pts), pts.shape[1] + 2), dtype=np.int64)
    x = np.remainder(pts, q, out=rows[:, :-2])
    np.remainder(np.einsum("ij,ij->i", x, x), q, out=rows[:, -2])
    return rows


def _vanishing(rows, cols, q: int, count: bool = False):
    """Boolean matrix whose [i, j] entry says rows[i] . cols[:, j] = 0
    (mod q), for lifted points `rows` (n, k) and a lifted (k, m) family
    `cols`, both residues in [0, q), so no sum exceeds k*(q-1)**2; with
    `count`, its int64 row and column counts instead, and no matrix.

    The sums are one BLAS product per row block of `_block_rows(m)`
    rows, written into the product buffer `v`; its quotient is formed in
    place in the buffer `t`, and both buffers are allocated once per
    call, so no |P| x m temporary or per-block array is built.  The sums
    are in float32 while that bound is below 2**22, else in float64, so
    every partial sum is an integer the dtype holds exactly, in any
    summation order, and so is the sum v.  An entry is divisible by q
    exactly when v == rint(v * (1/q)) * q: the right side is always an
    exact multiple of q, and when q divides v the rounded quotient is
    exact, because its error, under |v/q| * 2**-22 (float32) or
    |v/q| * 2**-51 (float64), stays below 1/2.  Counting writes the test
    as 0/1 into `t` and adds its row and column sums, BLAS products with
    a ones vector, exact as every partial sum is a count below 2**24
    (asserted); the two totals must agree.
    """
    n, (k, m) = len(rows), cols.shape
    bound = k * (q - 1) ** 2
    assert bound < 1 << 50, "modulus too large for exact float64 sums"
    assert not count or max(n, m) < 1 << 24, "too many cells to count"
    dtype = np.float32 if bound < 1 << 22 else np.float64
    rows, cols = rows.astype(dtype), cols.astype(dtype)
    step = _block_rows(m)
    v = np.empty((min(step, n), m), dtype=dtype)
    t = np.empty_like(v)
    if count:
        ones, sums = np.ones(max(m, len(v)), dtype), np.zeros(n + m, dtype)
    else:
        out = np.empty((n, m), dtype=bool)
    inv = 1.0 / q
    for start in range(0, n, step):
        block = rows[start:start + step]
        vb, tb = v[:len(block)], t[:len(block)]
        np.matmul(block, cols, out=vb)
        np.multiply(vb, inv, out=tb)
        np.rint(tb, out=tb)
        tb *= q
        np.equal(vb, tb, out=tb if count else out[start:start + step])
        if count:
            np.dot(tb, ones[:m], out=sums[start:start + len(block)])
            sums[n:] += np.dot(ones[:len(block)], tb, out=v[0])
    if not count:
        return out
    sums = sums.astype(np.int64)
    assert sums[:n].sum() == sums[n:].sum(), "row and column totals differ"
    return sums[:n], sums[n:]


def incidence_counts(inc: np.ndarray, axis: int,
                     mask: np.ndarray | None = None) -> np.ndarray:
    """Row (axis=1) or column (axis=0) counts of a boolean matrix, as
    int64; when the boolean `mask` over the summed axis is given (columns
    for row counts, rows for column counts), only its entries are
    counted.  One float32 matrix-vector product per row block of
    `_block_rows(m)` rows, each block converted into one float32 buffer
    allocated per call, so no whole-matrix copy is made: exact, as every
    partial sum is a count, asserted below 2**24."""
    n, m = inc.shape
    assert n < 1 << 24 and m < 1 << 24, "too many cells for exact float32 counts"
    step = _block_rows(m)
    w = (np.ones(inc.shape[axis], dtype=np.float32) if mask is None
         else mask.astype(np.float32))
    if n <= step:
        x = inc.astype(np.float32)
        return (np.dot(x, w) if axis else np.dot(w, x)).astype(np.int64)
    buf = np.empty((step, m), dtype=np.float32)
    if axis:
        counts = np.empty(n, dtype=np.float32)
    else:
        counts, part = np.zeros(m, dtype=np.float32), np.empty(m, np.float32)
    for start in range(0, n, step):
        block = inc[start:start + step]
        x = buf[:len(block)]
        np.copyto(x, block)
        if axis:
            np.dot(x, w, out=counts[start:start + step])
        else:
            np.dot(w[start:start + step], x, out=part)
            counts += part
    return counts.astype(np.int64)


def hyperplane_incidence(lifted, hyperplanes, q: int, count: bool = False):
    """Boolean |P| x |H| matrix whose [i, j] entry says <n_j, x_i> = b_j,
    for points lifted by `lift` and int64 (|H|, d+1) rows (normal,
    offset): hyperplane j is lifted to the column [n_j | 0 | -b_j].
    With `count`, its row and column counts instead (`_vanishing`)."""
    aug = hyperplanes % q
    cols = np.zeros((aug.shape[1] + 1, len(aug)), dtype=residue_dtype(q))
    cols[:-2] = aug[:, :-1].T
    cols[-1] = -aug[:, -1] % q
    return _vanishing(lifted, cols, q, count)


def sphere_incidence(lifted, spheres, q: int) -> np.ndarray:
    """Boolean |P| x |S| matrix whose [i, j] entry says ||x_i - c_j|| = r_j,
    for points lifted by `lift` and int64 (|S|, d+1) rows (center, r),
    such as `Config.sphere_array`: sphere j is lifted to the column
    [-2c_j | 1 | ||c_j|| - r_j] mod q of the expanded form
    ||x|| - 2<x, c> + ||c|| - r, so no |P| x |S| x d difference array is
    built."""
    aug = spheres % q
    cols = np.ones((aug.shape[1] + 1, len(aug)), dtype=residue_dtype(q))
    cols[:-2] = -2 * aug[:, :-1].T % q
    cols[-1] = (np.square(aug[:, :-1]).sum(axis=1) - aug[:, -1]) % q
    return _vanishing(lifted, cols, q)


def incidence_gram(inc: np.ndarray) -> np.ndarray:
    """Column Gram matrix inc.T @ inc of a boolean incidence matrix.

    Entry [a, b] counts the rows incident to both columns a and b.  It is
    one float32 BLAS product (numpy's integer matmul has no BLAS kernel),
    which is exact: every partial sum is an integer of at most the row
    count, and float32 holds every integer below 2**24.
    """
    assert inc.shape[0] < 1 << 24, "too many rows for an exact float32 Gram"
    x = inc.astype(np.float32)
    return (x.T @ x).astype(np.int64)


def hyperplane_points(h: Hyperplane, space: AmbientSpace):
    pts = point_grid(space.q, space.d)
    on = hyperplane_incidence(lift(pts, space.q), np.array(
        [[*h.normal, h.offset]], dtype=np.int64), space.q)[:, 0]
    return list(map(tuple, pts[on].tolist()))


def flat_points(flat: Flat, space: AmbientSpace):
    """All q**(d-2) points of the flat, in lexicographic order."""
    pts = point_grid(space.q, space.d)
    on = hyperplane_incidence(lift(pts, space.q), np.column_stack(
        [flat.rows, flat.values]).astype(np.int64), space.q).all(axis=1)
    return list(map(tuple, pts[on].tolist()))


@lru_cache(maxsize=32)
def all_projective_directions(q: int, d: int) -> np.ndarray:
    """Canonical representatives of P^(d-1)(F_q), first nonzero
    coordinate 1, as a read-only int64 (N, d) array of lexicographically
    sorted rows: one block per lead position, the last position first,
    each block a 1 after the leading zeros and then a `point_grid` tail.
    A table of more than ENUMERATION_CAP entries, (q^d - 1)/(q - 1) rows
    times d, raises SpaceTooLarge before any block is made."""
    if (q ** d - 1) // (q - 1) * d > ENUMERATION_CAP:
        raise SpaceTooLarge(f"d * (q^{d} - 1)/(q - 1) direction entries "
                            "exceed the enumeration cap")
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
