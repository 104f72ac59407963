#!/usr/bin/env python3
"""Incidence statistics side by side: random versus structured input.

Shows the exact energy decomposition (energy = incidences + off-diagonal
overlap), the dyadic layer histogram of sphere-pair overlaps, and the
near-extremality parameter K for a uniform random configuration against
a planted one of the same size.
"""

from ffrigidity import GeneratorSpec, energies, generate, stratify


def describe(tag, config):
    st = energies(config)
    layers = stratify(st.gram)
    print(f"--- {tag} ---")
    print(f"points {len(config.points)}, spheres {len(config.spheres)}, "
          f"q = {config.q}")
    print(f"incidences       {st.incidences}")
    print(f"energy           {st.energy}")
    print(f"off-diagonal     {st.off_diagonal}")
    assert st.energy == st.incidences + st.off_diagonal
    print(f"identity         {st.incidences} + {st.off_diagonal} "
          f"= {st.energy}  (exact)")
    print(f"K                {st.K:.4f}")
    print(f"overlap layers   {layers.layers}  zero-overlap pairs "
          f"{layers.zero_pairs}")
    print()


def main():
    base = dict(q=13, d=3, n_points=26, n_spheres=10, seed=42)
    uniform = generate(GeneratorSpec(kind="uniform-random", **base))
    planted = generate(GeneratorSpec(kind="reflected-pairs", **base))
    describe("uniform random", uniform.config)
    describe("reflected pairs, all points on one plane", planted.config)
    print("Raw incidences barely move, so K can stay at zero for both.")
    print("The planted family shows up in the overlap layers instead:")
    print("mirror pairs share a rich bisector, pushing mass upward, and")
    print("that is the signal the extraction pipeline feeds on.")


if __name__ == "__main__":
    main()
