"""End-to-end flow of Figure 1 at laptop scale:

    pretrained f(x)  ->  fake-quantized g(x)  ->  integer-only g'(x)

A tiny MobileNet-style network is trained in full precision on the
synthetic classification task, a memory-driven policy is computed for a
tight budget, the network is retrained quantization-aware with PACT
activation quantizers and per-channel weight ranges, converted to an
integer-only graph with ICN activation layers, and finally executed with
bit-accurate integer kernels.  The script reports the accuracy at each
stage and the deployed Flash footprint.

Run with:  python examples/end_to_end_qat.py

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
from repro.core.policy import QuantMethod, QuantPolicy
from repro.data import make_synthetic_classification
from repro.inference.export import deployment_size_bytes
from repro.runtime import Session
from repro.training import (
    QATConfig,
    QATTrainer,
    TrainConfig,
    Trainer,
    evaluate_model,
    prepare_qat,
)


def _epochs(default: int) -> int:
    """Training length, cappable via REPRO_EXAMPLE_EPOCHS for CI smoke."""
    cap = os.environ.get("REPRO_EXAMPLE_EPOCHS")
    return min(default, int(cap)) if cap else default


def main() -> None:
    # ------------------------------------------------------------------
    # Substitute dataset (ImageNet stand-in, see DESIGN.md) and model.
    # ------------------------------------------------------------------
    dataset = make_synthetic_classification(
        num_classes=5, resolution=16, train_per_class=60, test_per_class=20, seed=1
    )
    model = repro.build_tiny_mobilenet(resolution=16, width=8, num_classes=5, seed=0)

    # ------------------------------------------------------------------
    # Step 1 — full-precision pretraining: f(x).
    # ------------------------------------------------------------------
    print("1. full-precision pretraining")
    fp_result = Trainer(model, TrainConfig(epochs=_epochs(5), batch_size=32, lr=3e-3)).fit(dataset)
    print(f"   test accuracy: {fp_result.final_test_acc * 100:.1f} %")

    # ------------------------------------------------------------------
    # Step 2 — memory-driven mixed-precision policy for a tight budget.
    # ------------------------------------------------------------------
    spec = model.spec
    memory = MemoryModel(spec)
    full8 = memory.ro_bytes(QuantPolicy.uniform(spec, method=QuantMethod.PC_ICN, bits=8))
    ro_budget = int(full8 * 0.7)          # force sub-byte weight cuts
    rw_budget = 48 * 1024
    policy = repro.search_mixed_precision(
        spec, ro_budget, rw_budget, method=QuantMethod.PC_ICN
    )
    print("\n2. memory-driven mixed-precision policy "
          f"(RO budget {ro_budget / 1024:.0f} kB, RW budget {rw_budget / 1024:.0f} kB)")
    print(policy.summary())

    # ------------------------------------------------------------------
    # Step 3 — quantization-aware retraining: g(x).
    # ------------------------------------------------------------------
    print("\n3. quantization-aware retraining (PACT activations, PC weights)")
    prepare_qat(model, policy, calibration_data=dataset.x_train[:64])
    QATTrainer(model, QATConfig(epochs=_epochs(4), batch_size=32, lr=1e-3,
                                lr_schedule={2: 5e-4, 3: 1e-4})).fit(dataset)
    model.eval()
    fq_acc = evaluate_model(model, dataset)
    print(f"   fake-quantized accuracy: {fq_acc * 100:.1f} %")

    # ------------------------------------------------------------------
    # Step 4 — integer-only conversion with ICN layers: g'(x).
    # ------------------------------------------------------------------
    print("\n4. integer-only conversion (ICN activation layers)")
    net = convert_to_integer_network(model, method=QuantMethod.PC_ICN)
    sizes = deployment_size_bytes(net)

    # ------------------------------------------------------------------
    # Step 5 — serve through the runtime Session front door, and prove
    # the deployment artifact round-trips from disk bit-identically.
    # ------------------------------------------------------------------
    print("\n5. compile + serve through repro.runtime.Session")
    session = Session(net, input_hw=(16, 16))
    int_acc = float(
        (session.predict(dataset.x_test, batch_size=64) == dataset.y_test).mean())
    print(f"   integer-only accuracy : {int_acc * 100:.1f} % "
          f"(ICN conversion loss {100 * (fq_acc - int_acc):+.2f} points)")
    print(f"   deployed Flash size   : {sizes['total'] / 1024:.1f} kB "
          f"({sizes['weights'] / 1024:.1f} kB weights + "
          f"{sizes['aux_params'] / 1024:.1f} kB ICN parameters)")
    print(f"   fits the RO budget    : {'yes' if sizes['total'] <= ro_budget else 'no'}")

    with tempfile.TemporaryDirectory() as tmp:
        path = session.save(tmp + "/model.artifact")
        restored = Session.load(path)
        same = np.array_equal(restored.run(dataset.x_test),
                              session.run(dataset.x_test))
    print(f"   artifact round trip   : saved, reloaded without the original "
          f"network, bit-identical logits: {'yes' if same else 'NO'}")


if __name__ == "__main__":
    main()
