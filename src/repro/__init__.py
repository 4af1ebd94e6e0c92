"""repro — reproduction of "Memory-Driven Mixed Low Precision Quantization
For Enabling Deep Network Inference On Microcontrollers" (Rusci,
Capotondi, Benini — MLSYS 2020).

The public serving API lives in :mod:`repro.runtime` (the canonical
reference) and is re-exported here — one front door from spec to a
running, saveable session:

    spec    = repro.mobilenet_v1_spec(192, 0.5)
    session = repro.pipeline(spec, device=repro.STM32H7)
    labels  = session.predict(images)
    session.save("model.artifact")
    session = repro.Session.load("model.artifact")

The analytical workflow of the paper remains alongside it:

    policy = repro.search_mixed_precision(spec, ro_budget, rw_budget)
    report = repro.deploy(spec, repro.STM32H7)

The heavier machinery (QAT, ICN conversion, integer kernels) lives in
the subpackages ``repro.core``, ``repro.nn``, ``repro.training``,
``repro.inference``, ``repro.mcu``, ``repro.runtime`` and
``repro.evaluation``.
"""

from repro.core.policy import QuantMethod, QuantPolicy
from repro.core.memory_model import MemoryModel
from repro.core.mixed_precision import (
    MemoryInfeasibleError,
    search_mixed_precision,
)
from repro.core.graph_convert import convert_to_integer_network
from repro.models.model_zoo import (
    all_mobilenet_configs,
    mobilenet_v1_spec,
    NetworkSpec,
)
from repro.models.small_cnn import build_small_cnn, build_tiny_mobilenet
from repro.mcu.device import MCUDevice, STM32H7, STM32F7, STM32F4, STM32L4
from repro.mcu.deploy import deploy, DeploymentReport
from repro.training.qat import prepare_qat, QATConfig, QATTrainer
from repro.evaluation.accuracy_model import AccuracyModel
from repro.runtime import (
    ArtifactError,
    ArtifactNotFoundError,
    InvalidInputError,
    Session,
    pipeline,
)

__version__ = "1.1.0"

__all__ = [
    # quantize: search + policies
    "QuantMethod",
    "QuantPolicy",
    "MemoryModel",
    "MemoryInfeasibleError",
    "search_mixed_precision",
    "convert_to_integer_network",
    # model zoo
    "all_mobilenet_configs",
    "mobilenet_v1_spec",
    "NetworkSpec",
    "build_small_cnn",
    "build_tiny_mobilenet",
    # devices + analytical deployment
    "MCUDevice",
    "STM32H7",
    "STM32F7",
    "STM32F4",
    "STM32L4",
    "deploy",
    "DeploymentReport",
    # QAT
    "prepare_qat",
    "QATConfig",
    "QATTrainer",
    "AccuracyModel",
    # serving front door (repro.runtime)
    "Session",
    "pipeline",
    "ArtifactError",
    "ArtifactNotFoundError",
    "InvalidInputError",
    "__version__",
]
