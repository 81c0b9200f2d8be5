"""Vector block partitioning — the paper's optimization C (Fig. 6).

The ring (bucket) algorithms split an ``n``-element operand vector into
``p`` blocks, one per core; block sizes bound the per-round work.

* **Standard** (RCCE_comm rev 303): general block size ``n // p``; the
  *first* block additionally absorbs the remainder ``n mod p``.  For
  ``n = 575, p = 48`` the first block is 58 elements against 11 for the
  rest — a ~5.3:1 imbalance; for the application's 552-element vectors it
  is ~3.2:1 (Fig. 6a).
* **Balanced** (the paper's fix): the first ``n mod p`` blocks get one
  extra element, bounding the imbalance at ``(q+1)/q ≈ 1.1`` (Fig. 6b).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable


@dataclass(frozen=True)
class Partition:
    """The result of splitting ``n`` elements into ``p`` blocks."""

    n: int
    sizes: tuple[int, ...]
    #: ``offsets[b]`` is where block ``b`` starts (``offsets[p] == n``):
    #: the prefix sums of ``sizes``, computed once per instance.
    offsets: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        offsets = tuple(accumulate(self.sizes, initial=0))
        if offsets[-1] != self.n:
            raise ValueError(
                f"block sizes {self.sizes} do not cover {self.n} elements")
        object.__setattr__(self, "offsets", offsets)

    @property
    def p(self) -> int:
        return len(self.sizes)

    def size(self, block: int) -> int:
        return self.sizes[block]

    def offset(self, block: int) -> int:
        return self.offsets[block]

    def slice_of(self, block: int) -> slice:
        return slice(self.offsets[block], self.offsets[block + 1])

    def max_size(self) -> int:
        return max(self.sizes)

    def min_size(self) -> int:
        return min(self.sizes)

    def imbalance_ratio(self) -> float:
        """Largest-to-smallest block ratio (Fig. 6 annotations).

        Blocks of size zero make the ratio infinite — the standard scheme
        produces them whenever ``n < p``.
        """
        largest = self.max_size()
        smallest = self.min_size()
        if largest == 0:
            return 1.0  # empty partition: trivially balanced
        if smallest == 0:
            return math.inf
        return largest / smallest


def standard_partition(n: int, p: int) -> Partition:
    """RCCE_comm's splitting: block 0 gets ``n//p + n%p``, the rest ``n//p``."""
    _check(n, p)
    general = n // p
    first = general + n % p
    return Partition(n, (first,) + (general,) * (p - 1))


def balanced_partition(n: int, p: int) -> Partition:
    """The paper's splitting: first ``n mod p`` blocks get one extra element."""
    _check(n, p)
    general = n // p
    extra = n % p
    return Partition(n, (general + 1,) * extra + (general,) * (p - extra))


def _check(n: int, p: int) -> None:
    if n < 0:
        raise ValueError(f"negative element count: {n}")
    if p <= 0:
        raise ValueError(f"non-positive block count: {p}")


#: A partitioning strategy: (n, p) -> Partition.
Partitioner = Callable[[int, int], Partition]

PARTITIONERS: dict[str, Partitioner] = {
    "standard": standard_partition,
    "balanced": balanced_partition,
}


def partitioner_by_name(name: str) -> Partitioner:
    try:
        return PARTITIONERS[name]
    except KeyError:
        raise KeyError(
            f"unknown partitioner {name!r}; known: {sorted(PARTITIONERS)}"
        ) from None


def fig6_table(p: int = 48, sizes: tuple[int, ...] = (528, 552, 575)) -> list[dict]:
    """Reproduce the Fig.-6 comparison: block sizes and imbalance ratios
    for the standard and optimized splitting at the paper's three vector
    lengths.  Returns one row per vector length."""
    rows = []
    for n in sizes:
        std = standard_partition(n, p)
        bal = balanced_partition(n, p)
        rows.append({
            "n": n,
            "standard_first": std.size(0),
            "standard_general": std.size(p - 1),
            "standard_ratio": std.imbalance_ratio(),
            "balanced_max": bal.max_size(),
            "balanced_min": bal.min_size(),
            "balanced_ratio": bal.imbalance_ratio(),
        })
    return rows
