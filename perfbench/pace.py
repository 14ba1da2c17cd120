"""Machine pace: a fixed pure-Python probe timed between items.

The benchmark shares its CPUs with other tenants, and the same work runs up
to twice as slow for spells of seconds to minutes.  Every pass times this
probe between items (at most every ``PROBE_EVERY`` seconds), and the pass's
times are scaled by ``REFERENCE_PROBE_S / median probe time``: seconds at
the pace where the probe takes ``REFERENCE_PROBE_S``.  On a steady machine the
factor is constant; during a slow spell it cancels the slowdown, since the
probe and the library are both interpreter-bound Python.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

PROBE_EVERY = 0.5
REFERENCE_PROBE_S = 0.004


def _probe_work() -> int:
    # Tuple hashing, set membership, sorting and Fraction sums: the operations
    # the library's hot loops are made of.
    seen = set()
    total = Fraction(0)
    for i in range(4500):
        key = (i * 7919 % 1013, i % 17)
        if key not in seen:
            seen.add(key)
        if i % 8 == 0:
            total += Fraction(i % 13 + 1, i % 7 + 1)
    return len(sorted(seen)) + total.denominator


def probe_seconds() -> float:
    """Fastest of five probe runs."""
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        _probe_work()
        best = min(best, time.perf_counter() - start)
    return best


class Pace:
    """Probe times of one pass; :meth:`tick` is called before every item."""

    def __init__(self):
        self.probes: list[float] = []
        self._last: float | None = None

    def tick(self) -> None:
        """Probe, unless the last probe is recent."""
        now = time.perf_counter()
        if self._last is None or now - self._last >= PROBE_EVERY:
            self.probes.append(probe_seconds())
            self._last = time.perf_counter()

    def close(self) -> None:
        """Probe once more at the end of the pass."""
        self.probes.append(probe_seconds())

    def factor(self) -> float:
        """Multiplier taking this pass's seconds to reference-pace seconds."""
        return REFERENCE_PROBE_S / statistics.median(self.probes)
