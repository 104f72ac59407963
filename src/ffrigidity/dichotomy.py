"""Vanishing polynomials on direction sets: small sets are algebraic.

The engine is a dimension count.  Homogeneous degree-D forms in d
variables make a space of dimension C(d+D-1, d-1); if a direction set
has fewer elements than that, the evaluation map has a kernel and some
nonzero form vanishes on the whole set.  Otherwise the map is injective
and the set is certified large.

No certificate is produced or checked here: extract, verify and the CLI
never call this module.  It stays because the benchmark pins it (its
layer list imports the module and its smoke test traces the re-exported
``dichotomy``); ROADMAP item 8 deletes it once item 7 changes the bench.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .field import PrimeField, kernel_basis

BASIS_CAP = 100_000


class BasisTooLarge(ValueError):
    pass


def enumerate_monomials(nvars: int, degree: int, cap: int = BASIS_CAP):
    """Exponent tuples of the homogeneous degree-`degree` monomials, in
    descending lex order."""
    if nvars < 1:
        raise ValueError("need at least one variable")
    if degree < 0:
        raise ValueError("degree must be non-negative")
    size = comb(nvars + degree - 1, nvars - 1)
    if size > cap:
        raise BasisTooLarge(f"basis of size {size} exceeds cap {cap}")
    return tuple(sorted(_compositions(degree, nvars), reverse=True))


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


@dataclass(frozen=True)
class MonomialBasis:
    nvars: int
    degree: int
    exponents: tuple


def monomial_basis(nvars: int, degree: int) -> MonomialBasis:
    return MonomialBasis(nvars, degree, enumerate_monomials(nvars, degree))


@dataclass(frozen=True)
class Polynomial:
    """Sparse polynomial over F_q: nonzero terms in graded basis order."""
    nvars: int
    terms: tuple  # of (exponent tuple, coefficient)

    def is_zero(self) -> bool:
        return not self.terms

    def evaluate(self, point, q: int) -> int:
        total = 0
        for exps, coef in self.terms:
            v = coef
            for x, e in zip(point, exps):
                if e:
                    v = v * pow(x % q, e, q) % q
            total += v
        return total % q

    def evaluate_many(self, points, q: int) -> np.ndarray:
        """Values at every point at once, as an int64 array."""
        values = monomial_values(points, [e for e, _ in self.terms], q)
        coefs = np.asarray([c % q for _, c in self.terms], dtype=np.int64)
        return (values * coefs).sum(axis=1) % q


def polynomial_from_vector(basis: MonomialBasis, vec, q: int) -> Polynomial:
    terms = tuple((e, c % q) for e, c in zip(basis.exponents, vec) if c % q)
    return Polynomial(nvars=basis.nvars, terms=terms)


def monomial_values(points, exponents, q: int) -> np.ndarray:
    """Array of x**e mod q, one row per point and one column per exponent
    tuple, read from a table of every coordinate's powers 0..max(e).
    Points are an int64 array or a sequence of points, whose coordinates
    may be Python ints beyond int64 and are reduced one by one."""
    out = np.ones((len(points), len(exponents)), dtype=np.int64)
    if not out.size:
        return out
    if isinstance(points, np.ndarray):
        pts = points.astype(np.int64, copy=False) % q
    else:
        pts = np.asarray([[x % q for x in p] for p in points], dtype=np.int64)
    exps = np.asarray(exponents, dtype=np.int64).reshape(len(exponents), -1)
    powers = np.empty((int(exps.max()) + 1,) + pts.shape, dtype=np.int64)
    powers[0] = 1
    for e in range(1, len(powers)):
        np.multiply(powers[e - 1], pts, out=powers[e])
        powers[e] %= q
    for j, column in enumerate(exps.T):
        out *= powers[column, :, j].T
        out %= q
    return out


@dataclass(frozen=True)
class DichotomyResult:
    branch: str  # "algebraic" or "large"
    poly: Polynomial | None
    n_directions: int
    basis_size: int
    degree: int


def dichotomy(directions, D: int, q: int) -> DichotomyResult:
    """Either a nonzero homogeneous degree-D form vanishing on every
    direction, or the certified bound |N| >= C(d+D-1, d-1).

    Directions are deduplicated first; the two branches are mutually
    exclusive by rank considerations, and the algebraic witness is
    re-verified by evaluation before being returned.
    """
    if D < 1:
        raise ValueError("degree must be at least 1")
    dirs = sorted(set(tuple(x % q for x in p) for p in directions))
    if not dirs:
        raise ValueError("empty direction set")
    nvars = len(dirs[0])
    basis = monomial_basis(nvars, D)
    kernel = kernel_basis(monomial_values(dirs, basis.exponents, q),
                          PrimeField(q))
    if kernel:
        poly = polynomial_from_vector(basis, kernel[0], q)
        assert not poly.is_zero()
        assert not poly.evaluate_many(dirs, q).any()
        return DichotomyResult("algebraic", poly, len(dirs),
                               len(basis.exponents), D)
    assert len(dirs) >= len(basis.exponents)
    return DichotomyResult("large", None, len(dirs), len(basis.exponents), D)
