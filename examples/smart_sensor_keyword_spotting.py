"""Smart-sensor scenario: always-on keyword spotting on a low-power MCU.

The paper's introduction motivates deep inference on battery-powered
smart sensors.  This example models a keyword-spotting pipeline (the
workload of [25], "Hello Edge"): a small depthwise-separable CNN over
2-D time-frequency patches, deployed on a low-power STM32L4 (1 MB Flash,
128 kB RAM, 80 MHz).  The tighter budgets force the memory-driven search
to cut precision even for a small network, and the whole pipeline —
training, QAT, ICN conversion, integer inference and a duty-cycle energy
estimate — runs end to end.

Run with:  python examples/smart_sensor_keyword_spotting.py

Set REPRO_EXAMPLE_EPOCHS to cap the training epochs (the CI examples
smoke lane runs with REPRO_EXAMPLE_EPOCHS=1).
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

import repro
from repro.core.graph_convert import convert_to_integer_network
from repro.core.memory_model import MemoryModel
from repro.core.policy import QuantMethod
from repro.data import make_synthetic_classification
from repro.inference.export import deployment_size_bytes
from repro.mcu.latency import network_cycles
from repro.runtime import Session
from repro.training import QATConfig, QATTrainer, TrainConfig, Trainer, evaluate_model, prepare_qat

#: Ten keyword classes ("yes", "no", ... plus silence/unknown), as in [25].
NUM_KEYWORDS = 10
#: Synthetic stand-in for 32x32 MFCC-style time-frequency patches.
PATCH_SIZE = 32


def _epochs(default: int) -> int:
    """Training length, cappable via REPRO_EXAMPLE_EPOCHS for CI smoke."""
    cap = os.environ.get("REPRO_EXAMPLE_EPOCHS")
    return min(default, int(cap)) if cap else default


def main() -> None:
    device = repro.STM32L4
    print(f"target device : {device.name} "
          f"({device.flash_mb:.0f} MB Flash, {device.ram_kb:.0f} kB RAM, "
          f"{device.clock_hz / 1e6:.0f} MHz)\n")

    # Synthetic spectrogram-like dataset (single channel).
    dataset = make_synthetic_classification(
        num_classes=NUM_KEYWORDS, resolution=PATCH_SIZE, channels=1,
        train_per_class=40, test_per_class=10, noise=0.2, seed=7,
    )
    model = repro.build_tiny_mobilenet(
        resolution=PATCH_SIZE, width=8, num_classes=NUM_KEYWORDS, in_channels=1, seed=3
    )

    print("training the keyword-spotting network in full precision ...")
    fp = Trainer(model, TrainConfig(epochs=_epochs(6), batch_size=32, lr=3e-3)).fit(dataset)
    print(f"  full-precision accuracy: {fp.final_test_acc * 100:.1f} %\n")

    # Memory-driven policy for the L4's budgets, scaled to the tiny model:
    # pretend the Flash/RAM share available to the model is 24 kB / 20 kB
    # (the rest of the firmware owns the remainder).
    ro_budget, rw_budget = 24 * 1024, 20 * 1024
    spec = model.spec
    policy = repro.search_mixed_precision(
        spec, ro_budget, rw_budget, method=QuantMethod.PC_ICN, strict=False
    )
    print(f"mixed-precision policy for {ro_budget // 1024} kB Flash / "
          f"{rw_budget // 1024} kB RAM (feasible={policy.feasible})")
    print(policy.summary())

    print("\nquantization-aware retraining ...")
    prepare_qat(model, policy, calibration_data=dataset.x_train[:64])
    QATTrainer(model, QATConfig(epochs=_epochs(4), batch_size=32, lr=1e-3,
                                lr_schedule={2: 5e-4})).fit(dataset)
    model.eval()
    fq_acc = evaluate_model(model, dataset)

    net = convert_to_integer_network(model, method=QuantMethod.PC_ICN)
    # Serve through the runtime front door: the Session compiles the
    # integer graph once and streams the test sweep through the arena.
    session = Session(net, input_hw=(PATCH_SIZE, PATCH_SIZE))
    int_acc = float(
        (session.predict(dataset.x_test, batch_size=64) == dataset.y_test).mean())
    sizes = deployment_size_bytes(net)

    # The deployable unit is the saved artifact: reload it from disk (no
    # original network object) and check it serves identically.
    with tempfile.TemporaryDirectory() as tmp:
        restored = Session.load(session.save(tmp + "/kws.artifact"))
        assert np.array_equal(restored.run(dataset.x_test),
                              session.run(dataset.x_test))
    memory = MemoryModel(spec)

    latency = network_cycles(spec, policy)
    latency_ms = 1000.0 * latency.total_cycles / device.clock_hz
    # Duty-cycled energy estimate: one inference per second at ~15 mW active.
    active_power_mw = 15.0
    energy_per_inference_mj = active_power_mw * latency_ms / 1000.0

    print("\nkeyword-spotting deployment summary")
    print(f"  fake-quantized accuracy : {fq_acc * 100:5.1f} %")
    print(f"  integer-only accuracy   : {int_acc * 100:5.1f} %")
    print(f"  Flash footprint         : {sizes['total'] / 1024:5.1f} kB "
          f"(budget {ro_budget / 1024:.0f} kB)")
    print(f"  RAM peak (activations)  : {memory.rw_peak_bytes(policy) / 1024:5.1f} kB "
          f"(budget {rw_budget / 1024:.0f} kB)")
    print(f"  latency on {device.name:<10s}: {latency_ms:6.1f} ms per inference")
    print(f"  energy per inference    : {energy_per_inference_mj:6.2f} mJ "
          f"(~{active_power_mw} mW active)")
    print("  session artifact        : save/load round trip bit-identical")


if __name__ == "__main__":
    main()
