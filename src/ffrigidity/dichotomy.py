"""Vanishing polynomials on direction sets: small sets are algebraic.

The engine is a dimension count.  Homogeneous degree-D forms in d
variables make a space of dimension C(d+D-1, d-1); if a direction set
has fewer elements than that, the evaluation map has a kernel and some
nonzero form vanishes on the whole set.  Otherwise the map is injective
and the set is certified large.  An affine-chart variant works in d-1
variables and homogenizes its output back.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .field import PrimeField, kernel_basis
from .geometry import affine_chart

BASIS_CAP = 100_000


class BasisTooLarge(ValueError):
    pass


class EmptyChart(ValueError):
    pass


def enumerate_monomials(nvars: int, degree: int, homogeneous: bool,
                        cap: int = BASIS_CAP):
    """Exponent tuples in graded order, descending lex within a degree."""
    if nvars < 1:
        raise ValueError("need at least one variable")
    if degree < 0:
        raise ValueError("degree must be non-negative")
    size = comb(nvars + degree - 1, nvars - 1) if homogeneous \
        else comb(nvars + degree, nvars)
    if size > cap:
        raise BasisTooLarge(f"basis of size {size} exceeds cap {cap}")
    degrees = [degree] if homogeneous else list(range(degree + 1))
    out = []
    for t in degrees:
        out.extend(sorted(_compositions(t, nvars), reverse=True))
    return tuple(out)


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
    homogeneous: bool
    exponents: tuple


def monomial_basis(nvars: int, degree: int, homogeneous: bool) -> MonomialBasis:
    return MonomialBasis(nvars, degree, homogeneous,
                         enumerate_monomials(nvars, degree, homogeneous))


@dataclass(frozen=True)
class Polynomial:
    """Sparse polynomial over F_q: nonzero terms in graded basis order."""
    nvars: int
    terms: tuple  # of (exponent tuple, coefficient)

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((sum(e) for e, _ in self.terms), default=-1)

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


def evaluation_matrix(points, basis: MonomialBasis, q: int):
    """Row per point, column per monomial, entries taken mod q."""
    return monomial_values(points, basis.exponents, q).tolist()


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
    basis = monomial_basis(nvars, D, homogeneous=True)
    field = PrimeField(q)
    mat = evaluation_matrix(dirs, basis, q)
    kernel = kernel_basis(mat, field)
    if kernel:
        poly = polynomial_from_vector(basis, kernel[0], q)
        assert not poly.is_zero()
        assert not poly.evaluate_many(dirs, q).any()
        return DichotomyResult("algebraic", poly, len(dirs),
                               len(basis.exponents), D)
    assert len(dirs) >= len(basis.exponents)
    return DichotomyResult("large", None, len(dirs), len(basis.exponents), D)


@dataclass(frozen=True)
class AffineDichotomyResult:
    branch: str
    chart: int
    chart_poly: Polynomial | None
    homogenized: Polynomial | None
    n_chart_points: int
    basis_size: int
    degree: int


def homogenize(poly: Polynomial, chart: int, nvars_out: int) -> Polynomial:
    """Lift a chart polynomial back to a homogeneous form.

    Each term picks up the power of the chart variable that tops its
    degree up to deg(poly); distinct chart terms stay distinct, so a
    nonzero input gives a nonzero form of the same degree.
    """
    e_top = poly.degree()
    terms = []
    for exps, coef in poly.terms:
        filled = list(exps[:chart - 1]) + [e_top - sum(exps)] + list(exps[chart - 1:])
        terms.append((tuple(filled), coef))
    terms.sort(key=lambda t: (sum(t[0]), tuple(-x for x in t[0])))
    return Polynomial(nvars=nvars_out, terms=tuple(terms))


def affine_dichotomy(directions, chart: int, D: int, q: int) -> AffineDichotomyResult:
    """Dichotomy in the chart u_chart != 0, using all degrees up to D.

    The chart drops the dimension by one, so the relevant count is
    C(d-1+D, d-1).  An algebraic witness is homogenized and re-verified
    against the original directions in the chart.  A chart outside
    1..d raises ValueError.
    """
    if D < 1:
        raise ValueError("degree must be at least 1")
    dirs = sorted(set(tuple(x % q for x in p) for p in directions))
    if not dirs:
        raise ValueError("empty direction set")
    nvars = len(dirs[0])
    in_chart = []
    originals = []
    for n in dirs:
        u = affine_chart(n, chart, q)
        if u is not None:
            in_chart.append(u)
            originals.append(n)
    chart_pts = sorted(set(in_chart))
    if not chart_pts:
        raise EmptyChart(f"no direction lies in chart {chart}")
    basis = monomial_basis(nvars - 1, D, homogeneous=False)
    field = PrimeField(q)
    kernel = kernel_basis(monomial_values(chart_pts, basis.exponents, q),
                          field)
    if kernel:
        poly = polynomial_from_vector(basis, kernel[0], q)
        assert not poly.is_zero()
        assert not poly.evaluate_many(chart_pts, q).any()
        hom = homogenize(poly, chart, nvars)
        assert not hom.is_zero() and hom.degree() == poly.degree()
        assert not hom.evaluate_many(originals, q).any()
        return AffineDichotomyResult("algebraic", chart, poly, hom,
                                     len(chart_pts), len(basis.exponents), D)
    assert len(chart_pts) >= len(basis.exponents)
    return AffineDichotomyResult("large", chart, None, None,
                                 len(chart_pts), len(basis.exponents), D)


@dataclass(frozen=True)
class VeroneseResult:
    branch: str  # "dependent" or "too-few"
    coefficients: tuple | None
    basis_size: int
    n_hyperplanes: int
    degree: int


def linear_form_power(h, D: int, q: int, basis: MonomialBasis):
    """Coefficient vector of (<n, x> - b)**D in the inhomogeneous basis.

    The multinomial theorem gives the coefficient of x^a directly; all
    binomials are computed over the integers and reduced afterwards.
    """
    n, b = h.normal, h.offset
    d = len(n)
    out = []
    for exps in basis.exponents:
        s = sum(exps)
        if s > D:
            out.append(0)
            continue
        m = 1
        rem = D
        for e in exps:
            m *= comb(rem, e)
            rem -= e
        v = m % q
        for ni, e in zip(n, exps):
            v = v * pow(ni % q, e, q) % q
        v = v * pow((-b) % q, D - s, q) % q
        out.append(v)
    return out


def veronese_dependence(hyperplanes, D: int, q: int) -> VeroneseResult:
    """Linear dependence among D-th powers of affine linear forms.

    More than C(d+D, d) hyperplanes force a nonzero combination with
    sum_H a_H * (l_H)**D identically zero; the coefficients are checked
    in the monomial basis, which is exactly the zero-polynomial test.
    """
    hps = list(hyperplanes)
    if not hps:
        raise ValueError("empty hyperplane list")
    if D < 1:
        raise ValueError("degree must be at least 1")
    d = len(hps[0].normal)
    basis = monomial_basis(d, D, homogeneous=False)
    dim = len(basis.exponents)
    if len(hps) <= dim:
        return VeroneseResult("too-few", None, dim, len(hps), D)
    columns = [linear_form_power(h, D, q, basis) for h in hps]
    mat = [[columns[j][i] for j in range(len(hps))] for i in range(dim)]
    field = PrimeField(q)
    kernel = kernel_basis(mat, field)
    assert kernel, "more columns than rows must yield a dependence"
    coeffs = kernel[0]
    combo = [0] * dim
    for a, col in zip(coeffs, columns):
        if a:
            combo = [(x + a * y) % q for x, y in zip(combo, col)]
    assert all(x == 0 for x in combo)
    return VeroneseResult("dependent", tuple(coeffs), dim, len(hps), D)
