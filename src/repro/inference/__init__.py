"""Integer-only inference engine: bit-accurate emulation of the extended
CMSIS-NN kernels the paper deploys on the STM32H7."""

from repro.inference.packing import pack_subbyte, unpack_subbyte, packed_size_bytes
from repro.inference.kernels import (
    depthwise_stencil_accumulate,
    int_conv2d,
    int_depthwise_conv2d,
    int_linear,
    max_abs_accumulator,
)
from repro.inference.engine import (
    IntegerConvLayer,
    IntegerLinearLayer,
    IntegerAvgPool,
    IntegerNetwork,
)
from repro.inference.arena import (
    ActivationArena,
    LayerActivationPlan,
    logical_rw_peak_bytes,
    plan_activations,
)
from repro.inference.plan import ExecutionPlan, LayerPlanInfo
from repro.inference.export import (
    deployment_size_bytes,
    export_network,
    import_network,
    validate_export,
)

__all__ = [
    "pack_subbyte",
    "unpack_subbyte",
    "packed_size_bytes",
    "max_abs_accumulator",
    "depthwise_stencil_accumulate",
    "int_conv2d",
    "int_depthwise_conv2d",
    "int_linear",
    "IntegerConvLayer",
    "IntegerLinearLayer",
    "IntegerAvgPool",
    "IntegerNetwork",
    "ActivationArena",
    "LayerActivationPlan",
    "logical_rw_peak_bytes",
    "plan_activations",
    "ExecutionPlan",
    "LayerPlanInfo",
    "export_network",
    "import_network",
    "validate_export",
    "deployment_size_bytes",
]
