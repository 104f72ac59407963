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
from itertools import product
from typing import NamedTuple

import numpy as np

from .field import PrimeField, rref

ENUMERATION_CAP = 1 << 24


class SpaceTooLarge(ValueError):
    """Raised when an exhaustive enumeration would exceed the point cap."""


class IsotropicNormal(ValueError):
    """Raised when a reflection is requested across a hyperplane whose
    normal has vanishing quadratic form."""


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


def canonical_direction(vec, q: int) -> tuple:
    """Projective representative scaled so the first nonzero entry is 1."""
    v = tuple(c % q for c in vec)
    lead = next((c for c in v if c != 0), None)
    if lead is None:
        raise ValueError("zero vector has no projective direction")
    if lead == 1:
        return v
    s = pow(lead, q - 2, q)
    return tuple((c * s) % q for c in v)


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


def flat_from_pair(h1: Hyperplane, h2: Hyperplane, field: PrimeField):
    """Canonical intersection flat of two hyperplanes.

    Returns IDENTICAL for equal hyperplanes, PARALLEL_DISJOINT for
    distinct parallel ones, and a Flat otherwise.  Canonical hyperplanes
    are parallel exactly when their normal tuples coincide.
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


@lru_cache(maxsize=32)
def point_grid(q: int, d: int) -> np.ndarray:
    """All q**d points as an integer array in lexicographic order."""
    if q ** d > ENUMERATION_CAP:
        raise SpaceTooLarge(f"q^d = {q ** d} exceeds the enumeration cap")
    cols = []
    for i in range(d):
        reps = q ** (d - 1 - i)
        tiles = q ** i
        cols.append(np.tile(np.repeat(np.arange(q), reps), tiles))
    grid = np.stack(cols, axis=1).astype(np.int64)
    grid.setflags(write=False)
    return grid


def points_array(points, d: int) -> np.ndarray:
    arr = np.asarray(points, dtype=np.int64)
    if arr.size == 0:
        arr = arr.reshape(0, d)
    return arr


def hyperplane_incidence(pts, hyperplanes, q: int) -> np.ndarray:
    """Boolean |P| x |H| matrix whose [i, j] entry says <n_j, x_i> = b_j.

    pts is an integer array of shape (|P|, d) or a sequence of points.
    """
    if not hyperplanes:
        return np.zeros((len(pts), 0), dtype=bool)
    normals = np.asarray([h.normal for h in hyperplanes], dtype=np.int64)
    offsets = np.asarray([h.offset for h in hyperplanes], dtype=np.int64)
    pts = points_array(pts, normals.shape[1])
    return pts @ normals.T % q == offsets % q


def sphere_incidence(pts, spheres, q: int) -> np.ndarray:
    """Boolean |P| x |S| matrix whose [i, j] entry says ||x_i - c_j|| = r_j.

    The form is expanded as ||x|| - 2<x, c> + ||c||, so no |P| x |S| x d
    difference array is built.  Coordinates are reduced first; with
    q < 2**16 every term is then exact in int64.
    """
    if not spheres:
        return np.zeros((len(pts), 0), dtype=bool)
    centers = np.asarray([s.center for s in spheres], dtype=np.int64) % q
    radii = np.asarray([s.r for s in spheres], dtype=np.int64)
    pts = points_array(pts, centers.shape[1]) % q
    form = ((pts * pts).sum(axis=1)[:, None] - 2 * (pts @ centers.T)
            + (centers * centers).sum(axis=1))
    return form % q == radii % q


def sphere_points(s: Sphere, space: AmbientSpace):
    """All points of the sphere, in lexicographic order."""
    pts = point_grid(space.q, space.d)
    sel = pts[sphere_incidence(pts, [s], space.q)[:, 0]]
    return [tuple(int(c) for c in row) for row in sel]


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


def affine_chart(direction, j: int, q: int):
    """Dehomogenization of a projective direction in the chart u_j != 0.

    Charts are 1-indexed.  Returns the d-1 remaining coordinates after
    scaling the j-th to 1, or None when the direction misses the chart.
    """
    if not 1 <= j <= len(direction):
        raise ValueError(f"chart index {j} out of range")
    piv = direction[j - 1] % q
    if piv == 0:
        return None
    s = pow(piv, q - 2, q)
    return tuple((c * s) % q for i, c in enumerate(direction) if i != j - 1)


def all_projective_directions(q: int, d: int):
    """Canonical representatives of P^(d-1)(F_q), lexicographically sorted."""
    out = []
    for lead in range(d):
        head = (0,) * lead + (1,)
        for tail in product(range(q), repeat=d - lead - 1):
            out.append(head + tail)
    return sorted(out)


def reflect_point(x, h: Hyperplane, field: PrimeField) -> tuple:
    """Mirror image of x across a hyperplane with non-isotropic normal."""
    q = field.q
    nn = quad_norm(h.normal, q)
    if nn == 0:
        raise IsotropicNormal("cannot reflect across an isotropic normal")
    t = (sum(a * b for a, b in zip(h.normal, x)) - h.offset) % q
    scale = (2 * t * field.inv(nn)) % q
    return tuple((a - scale * n) % q for a, n in zip(x, h.normal))
