"""Reference cylindrification for the closure tests: C_var(mask) over the
k^n assignments of n variables, one bit per assignment in lexicographic
order. The groups are cached, since the tuple-vector reference asks for
the same few (k, n, var) many times."""

from __future__ import annotations

import functools

from thdist.semantics import _fibres


@functools.lru_cache(maxsize=None)
def exists_groups(k: int, n: int, var: int) -> list[int]:
    """Masks of assignment groups agreeing everywhere but coordinate `var`."""
    return [sum(1 << i for i in g) for g in zip(*_fibres(k, n, var))]


def cylindrify(mask: int, k: int, n: int, var: int) -> int:
    out = 0
    for g in exists_groups(k, n, var):
        if g & mask:
            out |= g
    return out
