"""The one delta-debugger behind every differential test's ``shrink_case``.

Each property harness generates a case whose interesting part is a list
(an op trace, an edge list, a sample list), checks it, and on failure
wants the smallest sub-list that still fails.  :func:`shrink` does the
list surgery; the harness supplies ``still_fails`` and rebuilds its own
case type around the result.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, TypeVar

T = TypeVar("T")


def shrink(
    items: Sequence[T],
    still_fails: Callable[[List[T]], bool],
    *,
    max_attempts: int = 200,
) -> List[T]:
    """Delta-debug ``items`` down to a minimal list that still fails.

    Tries removing chunks at halving granularity, down to single items;
    a removal is kept whenever ``still_fails(candidate)`` is true, and
    the same position is retried.  Stops when no single removal fails
    any more (1-minimal) or after ``max_attempts`` calls of
    ``still_fails``.
    """
    attempts = 0
    items = list(items)
    chunk = max(1, len(items) // 2)
    while chunk >= 1:
        i = 0
        while i < len(items):
            candidate = items[:i] + items[i + chunk :]
            if candidate != items and attempts < max_attempts:
                attempts += 1
                if still_fails(candidate):
                    items = candidate  # keep the removal, retry same position
                    continue
            i += chunk
        chunk //= 2
    return items
