"""The package's public surface."""

import bilex


def test_every_export_resolves_once():
    missing = [name for name in bilex.__all__ if not hasattr(bilex, name)]
    assert missing == []
    assert len(set(bilex.__all__)) == len(bilex.__all__)
