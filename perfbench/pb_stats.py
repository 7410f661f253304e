"""Order statistics the benchmark reports.

Timings are reported as a median and a tail: the highest percentile that
still has at least ``TAIL_BEYOND`` samples beyond it, so the tail is
never read off a handful of outliers.  The percentile and the sample
count travel with the value.
"""

from __future__ import annotations

from statistics import median  # noqa: F401  (re-exported)
from typing import Dict, Sequence

#: Minimum number of samples that must lie beyond a reported tail value.
TAIL_BEYOND = 10


def tail(values: Sequence[float]) -> Dict[str, float]:
    """The highest percentile with at least ``TAIL_BEYOND`` samples beyond it.

    With ``n`` samples sorted ascending, the value at nearest rank
    ``n - TAIL_BEYOND`` has exactly ``TAIL_BEYOND`` samples after it; its
    percentile is ``100 * (n - TAIL_BEYOND) / n``.  Fewer than
    ``TAIL_BEYOND + 1`` samples admit no such percentile, which is an
    error: the caller must measure more.
    """
    n = len(values)
    if n <= TAIL_BEYOND:
        raise ValueError(
            "tail needs more than {} samples, got {}".format(TAIL_BEYOND, n)
        )
    ordered = sorted(values)
    rank = n - TAIL_BEYOND
    return {
        "value": ordered[rank - 1],
        "percentile": 100.0 * rank / n,
        "n": n,
        "beyond": n - rank,
    }

