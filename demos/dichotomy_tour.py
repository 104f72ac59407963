#!/usr/bin/env python3
"""The polynomial dichotomy on direction sets, by hand.

A set of directions in F_q^3 either fits inside the zero set of a
nonzero low-degree form or it is provably big.  Small sets always land
on the algebraic side; the full projective plane can never hide inside
a low-degree zero set, so it lands on the large side.
"""

import itertools

from ffrigidity import dichotomy

Q = 7


def show(result, dirs):
    print(f"  |N| = {result.n_directions}, degree {result.degree}, "
          f"basis {result.basis_size} -> {result.branch}")
    if result.poly is not None:
        print(f"  witness terms: {result.poly.terms}")
        worst = max(result.poly.evaluate(v, Q) for v in dirs)
        print(f"  max |F(v)| over N: {worst}")


def main():
    print("two directions, degree 1: must be algebraic")
    dirs = [(1, 2, 3), (4, 5, 6)]
    show(dichotomy(dirs, 1, Q), dirs)
    print()

    print("five directions, degree 2 (basis size 6): still algebraic")
    dirs = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 4)]
    show(dichotomy(dirs, 2, Q), dirs)
    print()

    print("every direction of the projective plane, degree 2: large")
    dirs = [v for v in itertools.product(range(Q), repeat=3) if any(v)]
    show(dichotomy(dirs, 2, Q), dirs)


if __name__ == "__main__":
    main()
