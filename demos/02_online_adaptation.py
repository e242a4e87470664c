"""Online adaptation on the default shifted stream, one run per diagram.

The stream applies a severity-3 rotation drift to every test input. The
frozen extractor misclassifies heavily against plain Voronoi sites; the
cluster diagrams absorb much of the drift through their rotation-expanded
sites, and entropy descent on the affine feature parameters recovers most
of the rest. Prints the cumulative-error trajectory per mode.

Run from the repository root:  python demos/02_online_adaptation.py
"""

from dataclasses import replace

from voronoi_tta import AdaptConfig, StreamConfig, prepare_run, run_single
from voronoi_tta.metrics import adaptation_curve

stream_cfg = StreamConfig(seed=0)
adapt_cfg = AdaptConfig()
prepared = prepare_run(stream_cfg, seed=0)

print(f"stream: {stream_cfg.n_batches} batches x {stream_cfg.batch_size}, "
      f"corruption {stream_cfg.corruption} severity {stream_cfg.severity}")
print(f"adaptation: lr {adapt_cfg.learning_rate}, tau {adapt_cfg.tau}, "
      f"gamma {adapt_cfg.influence.gamma}")
print()

checkpoints = (0, 9, 24, 49)
header = "mode      " + "".join(f"  b{t + 1:02d}" for t in checkpoints) + "   final"
print(header)
for mode in ("vd", "civd", "cipd"):
    trace = run_single(prepared, adapt_cfg, mode)
    curve = dict(adaptation_curve(trace))
    row = "".join(f" {100 * curve[t]:5.1f}" for t in checkpoints)
    print(f"{mode:8s}{row}   {100 * trace.final_cum_error():5.1f}%")

frozen = run_single(prepared, replace(adapt_cfg, learning_rate=0.0), "cipd")
print(f"cipd frozen baseline: {100 * frozen.final_cum_error():5.1f}%  "
      "(the gap to the cipd row is the adaptation benefit)")
