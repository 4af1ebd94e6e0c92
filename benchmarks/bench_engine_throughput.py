"""E9 — throughput of the compiled inference engine vs. the interpreted
int64-einsum reference on a MobileNetV1 deployment graph.

Three measurements:

* E9  — end-to-end + per-layer latency of the compiled arena plan
  against the interpreted reference, asserting bit-exactness and the
  headline speedup;
* E9a — the depthwise-dominated regime (the paper's flagship 224_1.0
  geometry, where a whole-layer kh*kw-fold im2col copy would blow the
  cache): per depthwise layer, the plan's loop over cache-sized unfold
  tiles, bit-exact, with the planned arena at batch 8 at most 75 MiB;
* E9b — a streamed ``run_batched`` sweep whose measured peak allocation
  must stay inside the compile-time activation-arena plan reported by
  ``ExecutionPlan.describe()``.

The narrow-vs-wide comparison that justified container-width codes
(E9c) is recorded in ``results/engine_narrow_native.txt``; the wide
pipeline it measured no longer exists.

Run as a script for the CI smoke lane::

    python benchmarks/bench_engine_throughput.py --quick

which sweeps reduced-size parity checks (the default plan, its
``run_batched`` and an artifact round trip vs. the interpreted int64
reference) and exits non-zero on any mismatch.
"""

import argparse
import sys
import time
import tracemalloc

import numpy as np

from repro.evaluation.tables import render_table
from repro.inference.arena import depthwise_channel_bytes
from repro.inference.testing import integer_network_from_spec
from repro.models.model_zoo import mobilenet_v1_spec
from repro.nn.functional import conv_output_size
from repro.runtime import Session

RESOLUTION = 128
WIDTH = 0.5
BATCH = 8
NUM_CLASSES = 100


def _best_of(fn, reps: int = 3) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_benchmark_engine_throughput(record_report):
    spec = mobilenet_v1_spec(RESOLUTION, WIDTH, num_classes=NUM_CLASSES)
    net = integer_network_from_spec(spec, np.random.default_rng(0))
    x = np.random.default_rng(1).uniform(0, 1, size=(BATCH, 3, RESOLUTION, RESOLUTION))
    plan = net.compile()

    # Bit-exactness vs. the int64 reference.
    ref_logits = net.forward(x)
    fast_logits = plan.run(x)
    assert np.array_equal(ref_logits, fast_logits), "compiled engine diverged from int64 reference"
    assert np.array_equal(fast_logits, plan.run_batched(x, batch_size=3))

    t_seed = _best_of(lambda: net.forward(x))
    t_plan = _best_of(lambda: plan.run(x))
    speedup = t_seed / t_plan

    # Per-layer latency on the propagated intermediate codes.  Layer i
    # reads arena slot (i-1)%2 and writes slot i%2, so its input
    # survives the timing repeats.
    rows = []
    codes = plan.quantize_input(x)
    arena = plan.arena_for((RESOLUTION, RESOLUTION))
    infos = {i.name: i for i in plan.layer_info()}
    trunk = zip(plan.layers, net.conv_layers, plan.bound(codes.shape))
    for layer, ref_layer, views in trunk:
        t_l_seed = _best_of(lambda: ref_layer.forward(codes))
        t_l_plan = _best_of(lambda: layer(codes, views))
        info = infos[layer.name]
        rows.append([
            layer.name,
            layer.kind,
            f"{info.backend}/{info.gemm_dtype}->{info.container}",
            round(t_l_seed * 1e3, 2),
            round(t_l_plan * 1e3, 2),
            round(t_l_seed / t_l_plan, 1),
        ])
        codes = layer(codes, views)
    rows.append([
        "TOTAL", "", "", round(t_seed * 1e3, 2), round(t_plan * 1e3, 2),
        round(speedup, 1),
    ])

    report = render_table(
        ["Layer", "Kind", "Dispatch", "Seed ms", "Plan ms", "Speedup"],
        rows,
        title=(
            f"E9 — MobileNetV1 {RESOLUTION}_{WIDTH} batch={BATCH}: "
            f"{BATCH / t_seed:.1f} -> {BATCH / t_plan:.1f} imgs/sec "
            f"({speedup:.1f}x vs seed, bit-exact; arena "
            f"{arena.planned_bytes(BATCH)} B planned, code pair "
            f"{arena.physical_code_bytes(1)} B physical == Eq.7 peak)"
        ),
    )
    record_report("engine_throughput", report)

    assert speedup >= 5.0, f"compiled engine speedup {speedup:.2f}x below the 5x target"


def test_benchmark_depthwise_tile_loop(record_report):
    """E9a — depthwise-dominated regime (flagship 224_1.0 geometry).

    A whole depthwise layer's im2col tensor is tens to hundreds of MB at
    this scale, far past cache.  The plan instead loops over tiles whose
    unfold stays within ``DW_TILE_BYTES``, requantizing each at once.
    Per depthwise layer the table shows the tiles, the largest tile's
    unfold against the whole layer's, and the tile loop's time; the run
    must be bit-exact against the interpreted reference with the batch-8
    arena planned at most 75 MiB (169.8 MiB when every layer unfolded
    whole).
    """
    res, batch = 224, 8
    spec = mobilenet_v1_spec(res, 1.0, num_classes=NUM_CLASSES)
    net = integer_network_from_spec(spec, np.random.default_rng(0))
    x = np.random.default_rng(1).uniform(0, 1, size=(batch, 3, res, res))
    plan = net.compile()
    assert np.array_equal(plan.run(x), net.forward(x)), "tile loop diverged"

    rows = []
    codes = plan.quantize_input(x)
    arena = plan.arena_for((res, res))
    total = 0.0
    for layer, views in zip(plan.layers, plan.bound(codes.shape)):
        if layer.kind == "dw":
            n, c, h, w = codes.shape
            images, blocks = layer.tile_blocking(h, w, arena.dw_tile_bytes)
            oh = conv_output_size(h, layer.kh, layer.stride, layer.padding)
            ow = conv_output_size(w, layer.kw, layer.stride, layer.padding)
            channel_bytes = depthwise_channel_bytes(
                layer.kh, layer.kw, layer.stride, oh, ow, layer.gemm_itemsize)
            widest = max(c1 - c0 for c0, c1 in blocks)
            t_tiles = _best_of(lambda: layer(codes, views))
            total += t_tiles
            rows.append([
                layer.name, f"s{layer.stride}", -(-n // images) * len(blocks),
                round(min(images, n) * widest * channel_bytes / 2 ** 10, 1),
                round(n * c * channel_bytes / 2 ** 20, 1),
                round(t_tiles * 1e3, 2),
            ])
        codes = layer(codes, views)
    planned = arena.planned_bytes(batch)

    report = render_table(
        ["Layer", "Stride", "Tiles", "Tile KiB", "Whole unfold MiB", "Tile loop ms"],
        rows + [["TOTAL", "", "", "", "", round(total * 1e3, 2)]],
        title=(
            f"E9a — MobileNetV1 {res}_1.0 batch={batch} depthwise layers as "
            f"cache-sized tile loops (bit-exact); arena "
            f"{planned / 2 ** 20:.1f} MiB planned"
        ),
    )
    record_report("engine_depthwise_fused", report)

    assert planned <= 75 * 2 ** 20, f"planned arena {planned} B above 75 MiB"


def test_benchmark_batched_sweep_throughput(record_report):
    """E9b — streaming a sweep through the Session front door sustains
    the compiled rate inside the compile-time activation-memory plan."""
    res = 96
    spec = mobilenet_v1_spec(res, 0.25, num_classes=NUM_CLASSES)
    net = integer_network_from_spec(spec, np.random.default_rng(0))
    session = Session(net, input_hw=(res, res))
    plan = session.plan
    sweep = np.random.default_rng(2).uniform(0, 1, size=(64, 3, res, res))

    t_sweep = _best_of(lambda: session.run_batched(sweep, batch_size=8), reps=2)
    rate = sweep.shape[0] / t_sweep

    # Two-part bound (the whole point of the ping-pong scheme: batch >>
    # RAM never exceeds the planned peak).  The slabs themselves must be
    # exactly the compile-time plan, and a warm steady-state sweep must
    # not allocate more new memory on top of them than that plan.
    arena = plan.arena_for((res, res))
    planned = arena.planned_bytes(8)
    assert plan._slabs.allocated_bytes == planned, "arena slabs diverged from the plan"
    tracemalloc.start()
    session.run_batched(sweep, batch_size=8)
    _, measured_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert measured_peak <= planned, (
        f"run_batched peak {measured_peak} B exceeded planned arena {planned} B"
    )

    report = render_table(
        ["Sweep images", "Tile", "Seconds", "imgs/sec", "Planned arena B", "Measured peak B"],
        [[sweep.shape[0], 8, round(t_sweep, 3), round(rate, 1), planned, measured_peak]],
        title="E9b — batched evaluation sweep through the arena-backed plan",
    )
    record_report("engine_sweep_throughput", report)
    assert rate > 0


# ----------------------------------------------------------------------
# CI smoke lane: `python benchmarks/bench_engine_throughput.py --quick`
# ----------------------------------------------------------------------
def _quick_parity_sweep() -> None:
    """Reduced-size bit-exactness sweep of the compiled plan.

    Runs in seconds; any parity mismatch raises (non-zero exit), so perf
    PRs cannot silently break the bit-exactness contract the benchmarks
    rely on.
    """
    configs = [(32, 0.25, 8), (32, 0.5, 8), (64, 1.0, 8), (32, 0.25, 4), (32, 0.25, 2)]
    for res, width, bits in configs:
        spec = mobilenet_v1_spec(res, width, num_classes=10)
        net = integer_network_from_spec(
            spec, np.random.default_rng(res + int(width * 10) + bits),
            act_bits=bits, w_bits=bits,
        )
        x = np.random.default_rng(1).uniform(0, 1, size=(3, 3, res, res))
        ref = net.forward(x)
        plan = net.compile()
        if not np.array_equal(ref, plan.run(x)):
            raise AssertionError(
                f"{res}_{width} @ {bits}-bit: the plan diverged from the "
                f"interpreted int64 reference"
            )
        batched = plan.run_batched(x, batch_size=2)
        if not np.array_equal(ref, batched):
            raise AssertionError(f"{res}_{width} @ {bits}-bit: run_batched diverged")
        # Session-artifact round trip: save -> load -> serve must stay
        # bit-identical with no reference to the original network.
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            Session(net).save(tmp + "/artifact")
            if not np.array_equal(ref, Session.load(tmp + "/artifact").run(x)):
                raise AssertionError(
                    f"{res}_{width} @ {bits}-bit: artifact round trip diverged"
                )
        print(f"  parity ok: {res}_{width} @ {bits}-bit "
              f"(plan, run_batched + artifact round trip, bit-exact)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="fast parity-only sweep (CI smoke job); no timing assertions",
    )
    args = parser.parse_args(argv)
    if args.quick:
        print("E9 quick parity sweep...")
        _quick_parity_sweep()
        print("OK — the plan is bit-exact against the reference")
        return 0
    # Full benchmark run without pytest: reuse the pytest entry points
    # with a local report writer.
    from pathlib import Path

    results = Path(__file__).parent / "results"
    results.mkdir(exist_ok=True)

    def record(name, text):
        path = results / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n{text}\n[saved to {path}]")

    test_benchmark_engine_throughput(record)
    test_benchmark_depthwise_tile_loop(record)
    test_benchmark_batched_sweep_throughput(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
