import itertools
import random

import pytest

from ffrigidity.field import (NotAPrime, PrimeField, identity_matrix,
                              is_odd_prime, kernel_basis, mat_vec, rank, rref)


# oracle: rank by exhaustive search for the largest invertible minor,
# determinant computed by cofactor expansion mod q
def det_mod(mat, q):
    n = len(mat)
    if n == 0:
        return 1
    if n == 1:
        return mat[0][0] % q
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        sign = -1 if j % 2 else 1
        total += sign * mat[0][j] * det_mod(minor, q)
    return total % q


def rank_oracle(mat, q):
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    for r in range(min(rows, cols), 0, -1):
        for ri in itertools.combinations(range(rows), r):
            for ci in itertools.combinations(range(cols), r):
                sub = [[mat[i][j] for j in ci] for i in ri]
                if det_mod(sub, q):
                    return r
    return 0


def solves_homogeneous(mat, v, q):
    return all(sum(a * b for a, b in zip(row, v)) % q == 0 for row in mat)


def test_is_odd_prime_small():
    primes = {3, 5, 7, 11, 13, 17, 19, 23, 29, 31}
    for n in range(-2, 32):
        assert is_odd_prime(n) == (n in primes)


def test_is_odd_prime_excludes_two_and_squares():
    assert not is_odd_prime(2)
    assert not is_odd_prime(9)
    assert not is_odd_prime(49)
    assert is_odd_prime(65521)  # largest prime below 2**16


def test_prime_field_rejects_bad_moduli():
    for bad in (1, 2, 4, 9, 15, 2 ** 16 + 1, 0, -7):
        with pytest.raises(NotAPrime):
            PrimeField(bad)
    with pytest.raises(NotAPrime):
        PrimeField(True)
    with pytest.raises(NotAPrime):
        PrimeField("7")


def test_inverse_property_all_elements():
    for q in (3, 5, 7, 11, 13):
        f = PrimeField(q)
        for a in range(1, q):
            assert a * f.inv(a) % q == 1
        with pytest.raises(ZeroDivisionError):
            f.inv(0)


def test_field_equality_and_hash():
    assert PrimeField(7) == PrimeField(7)
    assert PrimeField(7) != PrimeField(11)
    assert hash(PrimeField(7)) == hash(PrimeField(7))


def test_rref_known_example():
    f = PrimeField(5)
    rows, pivots = rref([[2, 4], [1, 3]], f)
    # invertible, so reduces to the identity
    assert rows == ((1, 0), (0, 1))
    assert pivots == (0, 1)


def test_kernel_of_ones_row_mod_5():
    f = PrimeField(5)
    basis = kernel_basis([[1, 1]], f)
    assert basis == ((1, 4),)


def test_rref_idempotent_random():
    rng = random.Random(2)
    for _ in range(60):
        q = rng.choice((3, 5, 7, 11))
        f = PrimeField(q)
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        mat = [[rng.randrange(q) for _ in range(cols)] for _ in range(rows)]
        r1, p1 = rref(mat, f)
        r2, p2 = rref([list(r) for r in r1], f)
        assert r1 == r2 and p1 == p2


def test_rank_matches_minor_oracle():
    rng = random.Random(3)
    for _ in range(40):
        q = rng.choice((3, 5, 7))
        f = PrimeField(q)
        rows = rng.randrange(1, 4)
        cols = rng.randrange(1, 4)
        mat = [[rng.randrange(q) for _ in range(cols)] for _ in range(rows)]
        assert rank(mat, f) == rank_oracle(mat, q)


def test_kernel_vectors_solve_and_span_correct_count():
    rng = random.Random(4)
    for _ in range(50):
        q = rng.choice((3, 5, 7, 11))
        f = PrimeField(q)
        rows = rng.randrange(1, 4)
        cols = rng.randrange(1, 5)
        mat = [[rng.randrange(q) for _ in range(cols)] for _ in range(rows)]
        basis = kernel_basis(mat, f)
        assert len(basis) == cols - rank(mat, f)
        for v in basis:
            assert solves_homogeneous(mat, v, q)
            lead = next(c for c in v if c)
            assert lead == 1


def test_kernel_exhaustive_small():
    # over F_3 with 3 columns the kernel can be enumerated directly
    f = PrimeField(3)
    mat = [[1, 2, 0], [0, 0, 1]]
    basis = kernel_basis(mat, f)
    solutions = {v for v in itertools.product(range(3), repeat=3)
                 if solves_homogeneous(mat, v, 3)}
    spanned = set()
    for coeffs in itertools.product(range(3), repeat=len(basis)):
        vec = tuple(sum(c * b[i] for c, b in zip(coeffs, basis)) % 3
                    for i in range(3))
        spanned.add(vec)
    assert spanned == solutions


def test_pivot_columns_have_unit_columns():
    rng = random.Random(5)
    for _ in range(30):
        q = rng.choice((5, 7))
        f = PrimeField(q)
        mat = [[rng.randrange(q) for _ in range(4)] for _ in range(3)]
        rows, pivots = rref(mat, f)
        for k, col in enumerate(pivots):
            for i, row in enumerate(rows):
                assert row[col] == (1 if i == k else 0)


def test_mat_vec_and_identity():
    f = PrimeField(7)
    ident = identity_matrix(3)
    assert mat_vec(ident, (2, 5, 6), f) == (2, 5, 6)
    assert mat_vec([[1, 1, 1]], (3, 3, 3), f) == (2,)
