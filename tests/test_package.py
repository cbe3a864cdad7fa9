"""The package's public namespace."""

import bracelearn


def test_every_public_name_resolves():
    assert len(set(bracelearn.__all__)) == len(bracelearn.__all__)
    missing = [name for name in bracelearn.__all__ if not hasattr(bracelearn, name)]
    assert missing == []
