"""Property tests: a certificate does not depend on how its input is
labelled.  Relabeling the points and spheres of a config gives the same
certificate up to the index map, and `verify` accepts it."""

from hypothesis import given
from hypothesis import strategies as st

from ffrigidity.generators import KINDS, GeneratorSpec, generate
from ffrigidity.pipeline import extract_certificate
from ffrigidity.stats import make_config
from ffrigidity.verify import verify_certificate


@st.composite
def relabeled_configs(draw):
    """A small generated config, and permutations of its points and
    spheres (new position -> old index)."""
    q = draw(st.sampled_from((5, 7, 11, 13)))
    d = draw(st.sampled_from((3, 4)))
    spec = GeneratorSpec(kind=draw(st.sampled_from(KINDS)), q=q, d=d,
                         n_points=min(3 * q, q ** (d - 1)), n_spheres=8,
                         seed=draw(st.integers(0, 2 ** 16)),
                         noise=draw(st.sampled_from((0.0, 0.1))))
    config = generate(spec).config
    perm_p = draw(st.permutations(range(len(config.points))))
    perm_s = draw(st.permutations(range(len(config.spheres))))
    return config, perm_p, perm_s


@given(relabeled_configs())
def test_relabeling_maps_the_certificate_through_the_permutation(drawn):
    config, perm_p, perm_s = drawn
    shuffled = make_config(config.space,
                           [config.points[i] for i in perm_p],
                           [config.spheres[j] for j in perm_s])
    cert = extract_certificate(config)
    image = extract_certificate(shuffled)
    assert image.case == cert.case
    assert image.hyperplane == cert.hyperplane
    assert image.witness_flat == cert.witness_flat
    assert image.params == cert.params
    assert image.flags == cert.flags
    assert sorted(perm_p[i] for i in image.points_idx) == list(cert.points_idx)
    assert sorted(perm_s[j] for j in image.spheres_idx) == list(
        cert.spheres_idx)
    assert verify_certificate(shuffled, image.to_dict()) == []
