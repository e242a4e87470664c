"""Order statistics and the parent-versus-change verdict of the benchmark."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

MIN_TAIL = 10


def percentile(values, q: float, min_tail: int = MIN_TAIL) -> float:
    """Nearest-rank ``q``-th percentile of ``values``.

    Refuses when fewer than ``min_tail`` samples lie beyond the percentile,
    because such a tail is set by a handful of samples.
    """
    if not 0 < q < 100:
        raise ValueError("q must lie in (0, 100)")
    xs = sorted(values)
    rank = math.ceil(q / 100.0 * len(xs))
    beyond = len(xs) - rank
    if beyond < min_tail:
        raise ValueError(
            f"p{q:g} of {len(xs)} samples has {beyond} beyond it; need {min_tail}"
        )
    return xs[rank - 1]


@dataclass(frozen=True)
class Summary:
    """Median and quartiles of repeated measurements of one metric."""

    n: int
    q1: float
    median: float
    q3: float

    @property
    def spread(self) -> float:
        """Quartile distance as a share of the median."""
        if self.median == 0:
            return 0.0 if self.q3 == self.q1 else math.inf
        return (self.q3 - self.q1) / abs(self.median)


def summarize(values) -> Summary:
    """Quartiles as ``statistics.quantiles(values, n=4)`` gives them."""
    xs = [float(v) for v in values]
    if not xs:
        raise ValueError("no values to summarize")
    if len(xs) == 1:
        return Summary(1, xs[0], xs[0], xs[0])
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return Summary(len(xs), q1, med, q3)


def verdict(parent, change, better: str, bound: float) -> tuple[Summary, Summary, str]:
    """Compare repeated runs of a change against its parent on one metric.

    * ``unresolved``: either side's quartile spread exceeds ``bound`` and
      the change's runs do not all read better than all of the parent's.
    * ``better``: the change's median beats the parent's by more than the
      parent's own quartile distance.
    * ``worse``: the change's median is worse by more than ``bound`` of the
      parent's median.
    * ``within bound`` otherwise.
    """
    if better not in ("lower", "higher"):
        raise ValueError("better must be 'lower' or 'higher'")
    p, c = summarize(parent), summarize(change)
    sign = 1.0 if better == "lower" else -1.0
    all_better = all(sign * (x - y) < 0 for x in change for y in parent)
    if max(p.spread, c.spread) > bound and not all_better:
        return p, c, "unresolved"
    base = abs(p.median) if p.median else 1.0
    gain = sign * (p.median - c.median) / base
    if gain > 0 and gain > (p.q3 - p.q1) / base:
        return p, c, "better"
    if -gain > bound:
        return p, c, "worse"
    return p, c, "within bound"
