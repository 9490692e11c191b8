"""The package's public namespace."""

from __future__ import annotations

import orbitlb


def test_every_public_name_resolves():
    missing = [name for name in orbitlb.__all__ if not hasattr(orbitlb, name)]
    assert missing == []
    assert len(orbitlb.__all__) == len(set(orbitlb.__all__))
