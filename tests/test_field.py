import itertools
import random

import numpy as np
import pytest

from ffrigidity.field import (NotAPrime, PrimeField, inverse_table,
                              is_odd_prime, residue_dtype, rref)


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


# oracle: textbook Gauss-Jordan on Python integer lists, reducing every
# entry after every row operation
def rref_oracle(mat, q):
    m = [[x % q for x in row] for row in mat]
    pivots = []
    r = 0
    for c in range(len(m[0]) if m else 0):
        sel = next((i for i in range(r, len(m)) if m[i][c]), None)
        if sel is None:
            continue
        m[r], m[sel] = m[sel], m[r]
        inv = pow(m[r][c], q - 2, q)
        m[r] = [x * inv % q for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(x - f * y) % q for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return tuple(tuple(row) for row in m), tuple(pivots)


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
        table = inverse_table(q)
        for a in range(1, q):
            assert a * int(table[a]) % q == 1
        assert table[0] == 0


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
        assert len(rref(mat, f)[1]) == rank_oracle(mat, q)


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


def test_rref_matches_scalar_elimination():
    # the array elimination defers reduction mod q; q = 65521 checks that
    # no entry leaves int64 range on a 60 x 70 matrix, and entries far
    # outside [0, q) and low-rank products exercise the pivot search
    rng = random.Random(6)
    for q in (3, 5, 61, 65521):
        f = PrimeField(q)
        for rows, cols in ((1, 1), (2, 4), (3, 3), (7, 5), (5, 9),
                           (30, 36), (60, 70)):
            for low_rank in (False, True):
                if low_rank:
                    k = rng.randrange(1, min(rows, cols) + 1)
                    left = [[rng.randrange(q) for _ in range(k)]
                            for _ in range(rows)]
                    right = [[rng.randrange(q) for _ in range(cols)]
                             for _ in range(k)]
                    mat = [[sum(x * y for x, y in zip(row, col))
                            for col in zip(*right)] for row in left]
                else:
                    mat = [[rng.randrange(-3 * q, 3 * q)
                            if rng.random() < 0.7 else 0
                            for _ in range(cols)] for _ in range(rows)]
                mat[0][0] += 10 ** 30
                assert rref(mat, f) == rref_oracle(mat, q)
    assert rref([], PrimeField(5)) == ((), ())
    assert rref([[]], PrimeField(5)) == (((),), ())
    assert rref([[0, 0], [0, 0]], PrimeField(5)) == (((0, 0), (0, 0)), ())


def test_rref_wide_and_tall_match_scalar_elimination():
    # wide, tall and low-rank matrices with a block of zero columns, so
    # pivots run out early or skip columns; an int64 array gives the
    # same form
    rng = random.Random(11)
    for q in (3, 19, 65521):
        f = PrimeField(q)
        for rows, cols, k in ((40, 75, 40), (75, 40, 40), (50, 60, 13),
                              (12, 90, 12), (90, 12, 5)):
            left = [[rng.randrange(q) for _ in range(k)] for _ in range(rows)]
            right = [[rng.randrange(q) for _ in range(cols)]
                     for _ in range(k)]
            mat = [[sum(x * y for x, y in zip(row, col)) % q
                    for col in zip(*right)] for row in left]
            for row in mat:
                row[20:40] = [0] * len(row[20:40])
            expected = rref_oracle(mat, q)
            assert rref(mat, f) == expected
            assert rref(np.array(mat, dtype=np.int64), f) == expected


def test_residue_dtype_boundary():
    """The pair kernels' residues reach q * q - 1: 251 is the largest
    prime with q * q <= 2**16 (largest residue 63000) and takes uint16,
    257 the smallest above and takes uint32, as does 65521; the inverse
    table follows the same rule."""
    assert max(q for q in range(3, 257) if is_odd_prime(q)) == 251
    assert 251 * 251 - 1 == 63000 and 257 * 257 > 2 ** 16
    for q, dtype in ((3, np.uint16), (251, np.uint16), (257, np.uint32),
                     (65521, np.uint32)):
        assert residue_dtype(q) == dtype
        table = inverse_table(q)
        assert table.dtype == dtype
        assert all(a * int(table[a]) % q == 1 for a in range(1, q, 97))
