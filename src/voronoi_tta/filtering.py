"""Diagram-subtraction sample filtering.

A sample is treated as noisy when the unweighted and weighted cluster
diagrams disagree about its cell, i.e. it falls in the region swept out when
the weighted boundaries shift away from the unweighted ones. Filtering only
controls which samples contribute to the adaptation loss; predictions are
still made for every sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# ``cipd_influences`` is not called here; ``perfbench/tracing.py`` patches
# this module's binding of it by name, so the import stays.
from .geometry import (
    ClusterSiteSet,
    InfluenceConfig,
    _check_points,
    _weights,
    aggregate_influence,
    assign,
    cipd_influences,
    site_terms,
    squared_distances,
)

Array = np.ndarray


@dataclass(frozen=True)
class FilterReport:
    """Per-sample keep decisions; the kept fraction is ``keep_mask.mean()``.
    ``perfbench/tracing.py`` reads ``keep_mask`` from this report."""

    keep_mask: Array  # (n,) bool


def filter_batch(features, c: ClusterSiteSet, cfg: InfluenceConfig) -> FilterReport:
    """Keep the samples whose unweighted and weighted assignments agree.

    Both sides use the power-based influence over the same clusters; the
    unweighted side sets every v_k^2 to zero. With all-zero weights the two
    diagrams coincide and every sample is kept. For singleton clusters the
    excluded samples are exactly those whose VD and PD cells differ.

    One squared-distance table serves both sides: the weighted side's power
    terms are ``dsq - v_k^2``, and a zero-weight power term ``dsq - 0.0`` is
    ``dsq`` itself, so the unweighted side aggregates the table directly.
    The scores are bitwise those of ``cipd_influences`` on each side.
    """
    w = _weights(c)  # first: rejects a set without weights
    z = _check_points(np.atleast_2d(features), c.dim)
    dsq = squared_distances(z, c.clusters)
    weighted = aggregate_influence(site_terms(dsq, w), cfg)
    unweighted = aggregate_influence(dsq, cfg)
    return FilterReport(keep_mask=assign(unweighted) == assign(weighted))
