"""The package's public names: every export resolves, none is listed twice."""

import hffs


def test_every_exported_name_resolves_once():
    missing = [name for name in hffs.__all__ if not hasattr(hffs, name)]
    assert missing == []
    assert len(set(hffs.__all__)) == len(hffs.__all__)
