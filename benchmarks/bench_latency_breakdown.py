"""E8 — per-layer latency breakdown of representative configurations and
the PL-vs-PC kernel overhead (§6: ~20 % from the Z_w subtraction in the
inner loop), plus microbenchmarks of the bit-accurate integer kernels."""

import numpy as np
import pytest

from repro.core.policy import QuantMethod, QuantPolicy
from repro.evaluation.tables import render_table
from repro.inference.kernels import int_conv2d, int_depthwise_conv2d
from repro.mcu.device import STM32H7
from repro.mcu.latency import network_cycles
from repro.models.model_zoo import mobilenet_v1_spec


def test_benchmark_latency_breakdown_192_05(benchmark, record_report):
    spec = mobilenet_v1_spec(192, 0.5)

    def run():
        out = {}
        for label, method in (("MixQ-PL", QuantMethod.PL_ICN), ("MixQ-PC-ICN", QuantMethod.PC_ICN)):
            policy = QuantPolicy.uniform(spec, method=method, bits=8)
            out[label] = network_cycles(spec, policy)
        return out

    breakdowns = benchmark(run)

    pl, pc = breakdowns["MixQ-PL"], breakdowns["MixQ-PC-ICN"]
    rows = []
    for name, c_pl, c_pc in zip(pl.layer_names, pl.per_layer_cycles, pc.per_layer_cycles):
        rows.append([name, round(c_pl / 1e6, 2), round(c_pc / 1e6, 2), round(c_pc / c_pl, 2)])
    rows.append(["TOTAL", round(pl.total_cycles / 1e6, 1), round(pc.total_cycles / 1e6, 1),
                 round(pc.total_cycles / pl.total_cycles, 2)])
    report = render_table(
        ["Layer", "PL Mcycles", "PC Mcycles", "PC/PL"],
        rows,
        title=f"E8 — per-layer cycle breakdown of MobileNetV1 192_0.5 on {STM32H7.name}",
    )
    record_report("latency_breakdown", report)

    overhead = pc.total_cycles / pl.total_cycles
    assert 1.1 < overhead < 1.3  # paper: ~20 %


@pytest.mark.parametrize("w_bits", [8, 4, 2])
def test_benchmark_int_conv_kernel(benchmark, w_bits):
    """Microbenchmark of the bit-accurate integer convolution kernel."""
    rng = np.random.default_rng(0)
    x = rng.integers(0, 256, size=(1, 32, 28, 28))
    w = rng.integers(0, 2 ** w_bits, size=(64, 32, 3, 3))
    z_w = rng.integers(0, 2 ** w_bits, size=64)
    phi = benchmark(int_conv2d, x, w, 0, z_w, 1, 1, 8, w_bits)
    assert phi.shape == (1, 64, 28, 28)


def test_benchmark_int_depthwise_kernel(benchmark):
    rng = np.random.default_rng(0)
    x = rng.integers(0, 256, size=(1, 64, 28, 28))
    w = rng.integers(0, 16, size=(64, 1, 3, 3))
    phi = benchmark(int_depthwise_conv2d, x, w, 0, 7, 1, 1, 8, 4)
    assert phi.shape == (1, 64, 28, 28)
