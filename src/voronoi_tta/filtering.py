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

from .geometry import ClusterSiteSet, InfluenceConfig, cipd_influences

Array = np.ndarray


@dataclass(frozen=True)
class FilterReport:
    """Per-sample keep decisions."""

    keep_mask: Array  # (n,) bool
    kept_fraction: float


def filter_batch(features, c: ClusterSiteSet, cfg: InfluenceConfig) -> FilterReport:
    """Keep the samples whose unweighted and weighted assignments agree.

    Both sides use the power-based influence over the same clusters; the
    unweighted side sets every v_k^2 to zero. With all-zero weights the two
    diagrams coincide and every sample is kept. For singleton clusters the
    excluded samples are exactly those whose VD and PD cells differ.
    """
    z = np.atleast_2d(np.asarray(features, dtype=float))
    weighted = cipd_influences(z, c, cfg)  # first: rejects a set without weights
    unweighted = cipd_influences(z, c.with_weights(np.zeros(c.n_cells)), cfg)
    keep = np.argmax(unweighted, axis=-1) == np.argmax(weighted, axis=-1)
    return FilterReport(
        keep_mask=keep,
        kept_fraction=float(np.mean(keep)) if len(keep) else 1.0,
    )
