#!/usr/bin/env python3
"""Plant a hyperplane with mirrored sphere pairs, then recover it.

The generator puts every point on a hidden plane H and builds spheres in
mirror pairs straddling it, so each pair's bisector is H itself.  The
extraction pipeline should hand back exactly that plane, with the
points it carries.  We sweep a few seeds and some noise levels; the
bisector stays rich even with a fair share of off-plane points, so
recovery holds up well past mild noise at this size.
"""

from ffrigidity import (GeneratorSpec, extract_certificate, generate,
                        verify_certificate)


def run_one(q, seed, noise):
    spec = GeneratorSpec(kind="reflected-pairs", q=q, d=3,
                         n_points=2 * q, n_spheres=8,
                         seed=seed, noise=noise)
    g = generate(spec)
    cert = extract_certificate(g.config)
    hit = cert.hyperplane == g.planted
    clean = not verify_certificate(g.config, cert.to_dict())
    return cert, hit, clean


def main():
    q = 11
    print(f"q = {q}, d = 3, 22 points, 4 mirror pairs")
    print()
    spec = GeneratorSpec(kind="reflected-pairs", q=q, d=3, n_points=22,
                         n_spheres=8, seed=7)
    g = generate(spec)
    print("planted plane:", g.planted)
    cert = extract_certificate(g.config)
    print("case:", cert.case)
    print("recovered plane:", cert.hyperplane)
    print("structured points:", len(cert.points_idx), "of",
          len(g.config.points))
    print("verifier says:", verify_certificate(g.config, cert.to_dict())
          or "ok")
    print()

    print("noise sweep, 20 seeds each:")
    for noise in (0.0, 0.1, 0.2, 0.3, 0.4):
        hits = sum(run_one(q, seed, noise)[1] for seed in range(20))
        bar = "#" * hits
        print(f"  noise {noise:.1f}  recovered {hits:2d}/20  {bar}")


if __name__ == "__main__":
    main()
