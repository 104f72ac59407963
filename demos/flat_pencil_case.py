#!/usr/bin/env python3
"""Force the other branch of the case split: a pencil through one flat.

Spheres centered on the circle a^2 + b^2 = 1 in the z = 0 plane, all of
the same radius.  Any two centers give a bisector through the z axis,
so the multiset of bisectors is a fat pencil through one codimension-2
flat and extraction reports flat concentration instead of a popular
parallel class.
"""

from ffrigidity import (Sphere, extract_certificate, flat_points,
                        make_config, make_space, verify_certificate)

Q = 7


def main():
    sp = make_space(Q, 3)
    centers = [(a, b) for a in range(Q) for b in range(Q)
               if (a * a + b * b) % Q == 1]
    print(f"{len(centers)} centers on the unit circle:", centers)
    spheres = [Sphere((a, b, 0), 2) for a, b in centers]
    points = [(0, 0, t) for t in range(Q)]  # the z axis
    cfg = make_config(sp, points, spheres)

    cert = extract_certificate(cfg)
    print("case:", cert.case)
    print("witness flat rows:", cert.witness_flat.rows,
          "values:", cert.witness_flat.values)
    print("flat points:", flat_points(cert.witness_flat, sp))
    print("chosen plane:", cert.hyperplane)
    print("structured points:", cert.points_idx)
    print("sphere subfamily:", cert.spheres_idx)

    failures = verify_certificate(cfg, cert.to_dict())
    print("independent verification:", failures or "ok")

    print("kept point fraction:", len(cert.points_idx) / len(cfg.points))


if __name__ == "__main__":
    main()
