"""The traced benchmark's layer bindings still resolve and trace faithfully.

``perfbench/tracing.py`` patches package functions by module attribute name,
so a rename in ``src/`` would break ``perfbench/run.py --trace 1`` silently.
This imports that file as it stands and runs a tiny stream per mode under
its instrumentation.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from voronoi_tta.adaptation import MODES, AdaptConfig
from voronoi_tta.experiments import prepare_run, run_single
from voronoi_tta.streams import StreamConfig

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
PKG = {
    m: importlib.import_module(f"voronoi_tta.{m}")
    for m in ("experiments", "streams", "adaptation", "filtering", "geometry")
}
TINY = StreamConfig(
    n_classes=3, raw_dim=4, feature_dim=4, n_train_per_class=40,
    batch_size=8, n_batches=3, seed=5,
)
SCORE_SPAN = {
    "vd": "geometry.vd_distances",
    "civd": "geometry.civd_influences",
    "cipd": "geometry.cipd_influences",
}


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_layer_binding_resolves(tracing):
    for module, attr, name, _ in tracing.layer_bindings(PKG):
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} ({name})"


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("filtering", [False, True])
def test_traced_run_matches_untraced(tracing, mode, filtering):
    prepared = prepare_run(TINY, TINY.seed)
    plain = run_single(prepared, AdaptConfig(), mode, filtering)
    tracer = tracing.Tracer()
    ex = PKG["experiments"]
    with tracing.instrument(tracer, PKG):
        traced = ex.run_single(prepared, AdaptConfig(), mode, filtering)
    for a, b in zip(plain.records, traced.records, strict=True):
        assert np.array_equal(a.predictions, b.predictions)
        assert np.array_equal(a.keep_mask, b.keep_mask)
        assert a.mean_loss == b.mean_loss
    names = {s.name for s in tracer.spans}
    assert {SCORE_SPAN[mode], tracing.GRAD_SPAN, tracing.STREAM_SPAN} <= names
    assert ("filtering.filter_batch" in names) == filtering
