"""Prime-field arithmetic and dense linear algebra over F_q.

Field elements are plain Python integers kept as canonical residues in
[0, q).  Matrices are lists of row lists.  All routines are pure
functions of their inputs, so they are safe to call concurrently.
"""

from __future__ import annotations


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

    def inv(self, a: int) -> int:
        """Multiplicative inverse via Fermat exponentiation a**(q-2)."""
        a %= self.q
        if a == 0:
            raise ZeroDivisionError("inverse of zero in F_q")
        return pow(a, self.q - 2, self.q)


Matrix = list  # list of row lists with entries in [0, q)


def _copy_reduce(mat, q: int):
    return [[x % q for x in row] for row in mat]


def rref(mat, field: PrimeField):
    """Reduced row echelon form.

    Returns (rows, pivot_columns) where rows is a tuple of row tuples
    with pivot entries normalized to 1 and zeros above and below every
    pivot.  The result is unique, so it doubles as a canonical form.
    """
    q = field.q
    m = _copy_reduce(mat, q)
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        sel = None
        for i in range(r, nrows):
            if m[i][c] != 0:
                sel = i
                break
        if sel is None:
            continue
        m[r], m[sel] = m[sel], m[r]
        inv = field.inv(m[r][c])
        m[r] = [(x * inv) % q for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [(a - f * b) % q for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return tuple(tuple(row) for row in m), tuple(pivots)


def rank(mat, field: PrimeField) -> int:
    return len(rref(mat, field)[1])


def kernel_basis(mat, field: PrimeField):
    """Basis of the right null space {v : mat @ v = 0}.

    One basis vector per free column, in ascending free-column order,
    each rescaled so its first nonzero entry is 1.  This makes the
    output deterministic and directly comparable across runs.
    """
    q = field.q
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    if ncols == 0:
        return ()
    rows, pivots = rref(mat, field)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [0] * ncols
        v[free] = 1
        for i, p in enumerate(pivots):
            v[p] = (-rows[i][free]) % q
        lead = next(x for x in v if x != 0)
        if lead != 1:
            s = field.inv(lead)
            v = [(x * s) % q for x in v]
        basis.append(tuple(v))
    return tuple(basis)


def mat_vec(mat, v, field: PrimeField):
    q = field.q
    return tuple(sum(a * b for a, b in zip(row, v)) % q for row in mat)


def identity_matrix(n: int):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]
