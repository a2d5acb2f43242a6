"""The package's public surface."""

import cascadekd


def test_every_public_name_resolves_once():
    names = cascadekd.__all__
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(cascadekd, name)]
    assert missing == []
