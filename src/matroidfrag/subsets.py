"""Deterministic subset enumeration shared by the certification code.

Everything that searches for counterexamples walks subsets in the same
order: by size, then lexicographically on the sorted label tuple.  The
first failure found under this order is the minimal witness reported to
the caller.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator, Sequence


def subsets_by_size(labels: Iterable[str]) -> Iterator[frozenset[str]]:
    items = sorted(labels)
    for r in range(len(items) + 1):
        for combo in combinations(items, r):
            yield frozenset(combo)


def first_by_size(masks: Iterable[int], labels: Sequence[str]) -> list[str]:
    """Of the subsets given as bitmasks over the sorted `labels` (bit i
    stands for labels[i]), the one `subsets_by_size` yields first, as a
    sorted list of labels."""

    def members(s: int) -> list[int]:
        return [i for i in range(len(labels)) if s >> i & 1]

    first = min(masks, key=lambda s: (len(members(s)), members(s)))
    return [labels[i] for i in members(first)]


def partitions_of(labels: Iterable[str]) -> Iterator[tuple[frozenset[str], frozenset[str]]]:
    """All ordered two-colourings (C, D) of the labels, C enumerated
    by size then lexicographically."""
    whole = frozenset(labels)
    for c in subsets_by_size(whole):
        yield c, whole - c
