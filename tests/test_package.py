"""The package's public names."""

import gdmopt


def test_all_names_resolve_once():
    assert len(set(gdmopt.__all__)) == len(gdmopt.__all__)
    for name in gdmopt.__all__:
        assert hasattr(gdmopt, name), name
