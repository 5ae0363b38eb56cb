"""The map that enumeration scans run their points through."""

from __future__ import annotations


def pmap(fn, items: list) -> list:
    """Apply fn to each item, in order, in this process."""
    return [fn(item) for item in items]
