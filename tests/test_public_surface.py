"""The package's public names: each one in __all__ must resolve."""

import vmkit


def test_every_public_name_resolves_once():
    assert len(set(vmkit.__all__)) == len(vmkit.__all__)
    for name in vmkit.__all__:
        assert hasattr(vmkit, name), name
