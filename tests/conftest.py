import pytest

from ffrigidity import pipeline


@pytest.fixture
def refuse_flat_profile_within_b0(monkeypatch):
    """Wrap pipeline.flat_profile so that it fails on a family of at most
    b0 members, where no flat can sit in more than b0 of them.  The b0 of
    an extract is the last one pipeline.default_b0 returned, or the one a
    test appends to the yielded list before an extract with an explicit
    b0.  Yields that list and the list of the family sizes profiled."""
    b0s, profiled = [], []
    true_b0, true_profile = pipeline.default_b0, pipeline.flat_profile

    def recording(K2, d):
        b0s.append(true_b0(K2, d))
        return b0s[-1]

    def refusing(aug, field):
        assert len(aug) > b0s[-1], "flat_profile run on m <= b0"
        profiled.append(len(aug))
        return true_profile(aug, field)

    monkeypatch.setattr(pipeline, "default_b0", recording)
    monkeypatch.setattr(pipeline, "flat_profile", refusing)
    yield b0s, profiled
