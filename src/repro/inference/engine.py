"""Integer-only network executor (deployment graph g'(x), paper Fig. 1).

The engine mirrors what the MCU runtime executes: every convolutional
layer consumes and produces UINT-Q activation codes, requantized by one of
the three strategies of the paper (ICN, folded batch-norm, integer
thresholds).  The only floating-point operation in the whole network is
the final classifier dequantization used to produce real-valued logits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Union

import numpy as np

from repro.core.icn import (
    FoldedBNParams,
    ICNParams,
    ThresholdParams,
    folded_requantize,
    icn_requantize,
    threshold_requantize,
)
from repro.inference.kernels import (
    int_avg_pool_global,
    int_conv2d,
    int_depthwise_conv2d,
    int_linear,
    quantize_input_codes,
    shift_weights,
)
from repro.inference.packing import packed_size_bytes

RequantParams = Union[ICNParams, FoldedBNParams, ThresholdParams]


def _cached_shift(cache: Optional[tuple], weights_q: np.ndarray, z_w) -> tuple:
    """Single-shift weight cache for the interpreted layers.

    ``cache`` is ``(weights_q identity, int64 shifted weights)`` or
    ``None``; keyed on the identity of ``weights_q``, so swapping in a
    new weight tensor recomputes while repeated forwards reuse the
    zero-point shift.  (In-place mutation of the same array is not
    tracked — replace the tensor to requantize.)
    """
    if cache is None or cache[0] is not weights_q:
        cache = (weights_q, shift_weights(weights_q, z_w, int(weights_q.shape[0])))
    return cache


@dataclass
class IntegerConvLayer:
    """One integer-only quantized convolutional layer.

    ``kind`` is ``"conv"``, ``"dw"`` or ``"pw"`` (pointwise uses the
    standard conv kernel).  ``in_bits``/``out_bits`` are the activation
    precisions Q_x / Q_y; ``in_scale``/``out_scale`` the activation scales
    used only at the network boundary and for diagnostics.
    """

    name: str
    kind: str
    stride: int
    padding: int
    params: RequantParams
    in_bits: int
    out_bits: int
    in_scale: float
    out_scale: float
    _w_shift_cache: Optional[tuple] = field(
        default=None, init=False, repr=False, compare=False
    )

    def _shifted_weights(self) -> np.ndarray:
        """Zero-point-shifted int64 weights, computed once per weight
        tensor (see :func:`_cached_shift` for the invalidation contract)."""
        p = self.params
        self._w_shift_cache = _cached_shift(self._w_shift_cache, p.weights_q, p.z_w)
        return self._w_shift_cache[1]

    def forward(self, x_codes: np.ndarray, validate: bool = True) -> np.ndarray:
        """Interpreted (reference) forward over the int64 einsum kernels —
        the ground truth the compiled
        :class:`~repro.inference.plan.ExecutionPlan` is verified against."""
        p = self.params
        kernel = int_depthwise_conv2d if self.kind == "dw" else int_conv2d
        phi = kernel(
            x_codes, p.weights_q, p.z_x, p.z_w,
            stride=self.stride, padding=self.padding,
            x_bits=self.in_bits, w_bits=p.w_bits,
            validate=validate, w_shift=self._shifted_weights(),
        )
        if isinstance(p, ICNParams):
            return icn_requantize(phi, p)
        if isinstance(p, FoldedBNParams):
            return folded_requantize(phi, p)
        if isinstance(p, ThresholdParams):
            return threshold_requantize(phi, p)
        raise TypeError(f"unsupported requantization parameters {type(p)!r}")

    def weight_storage_bytes(self) -> int:
        return packed_size_bytes(int(self.params.weights_q.size), self.params.w_bits)


@dataclass
class IntegerLinearLayer:
    """Integer fully connected classifier producing real-valued logits.

    The weights are integer codes (per-layer or per-channel scales); the
    accumulator is dequantized with ``s_in * s_w`` and the full-precision
    bias is added, which is the last step before the argmax on the MCU.
    """

    name: str
    weights_q: np.ndarray
    z_w: np.ndarray
    s_w: np.ndarray
    z_x: int
    s_in: float
    bias: Optional[np.ndarray]
    in_bits: int
    w_bits: int
    _w_shift_cache: Optional[tuple] = field(
        default=None, init=False, repr=False, compare=False
    )

    def _shifted_weights(self) -> np.ndarray:
        """Shifted int64 classifier weights — same single-shift contract
        as :class:`IntegerConvLayer` (see :func:`_cached_shift`)."""
        self._w_shift_cache = _cached_shift(self._w_shift_cache, self.weights_q, self.z_w)
        return self._w_shift_cache[1]

    def forward(self, x_codes: np.ndarray, validate: bool = True) -> np.ndarray:
        phi = int_linear(x_codes, self.weights_q, self.z_x, self.z_w,
                         x_bits=self.in_bits, w_bits=self.w_bits,
                         validate=validate, w_shift=self._shifted_weights())
        s_w = np.asarray(self.s_w, dtype=np.float64).reshape(-1)
        if s_w.size == 1:
            logits = self.s_in * float(s_w[0]) * phi.astype(np.float64)
        else:
            logits = self.s_in * s_w.reshape(1, -1) * phi.astype(np.float64)
        if self.bias is not None:
            logits = logits + np.asarray(self.bias, dtype=np.float64)
        return logits

    def weight_storage_bytes(self) -> int:
        return packed_size_bytes(int(self.weights_q.size), self.w_bits)


@dataclass
class IntegerAvgPool:
    """Global average pooling in the integer domain (floor rounding)."""

    name: str = "global_avg_pool"

    def forward(self, x_codes: np.ndarray) -> np.ndarray:
        return int_avg_pool_global(x_codes)


@dataclass
class IntegerNetwork:
    """Whole integer-only deployment graph.

    ``input_scale`` / ``input_zero_point`` / ``input_bits`` describe how a
    real-valued image is quantized at the network boundary (the paper
    fixes Q_x^0 = 8).
    """

    conv_layers: List[IntegerConvLayer] = field(default_factory=list)
    pool: Optional[IntegerAvgPool] = None
    classifier: Optional[IntegerLinearLayer] = None
    input_scale: float = 1.0 / 255.0
    input_zero_point: int = 0
    input_bits: int = 8

    def quantize_input(self, x_real: np.ndarray) -> np.ndarray:
        """Quantize a real NCHW image batch into input codes."""
        return quantize_input_codes(
            x_real, self.input_scale, self.input_zero_point, self.input_bits
        )

    def forward_codes(self, x_codes: np.ndarray) -> np.ndarray:
        """Run the convolutional trunk on integer codes; returns codes."""
        for layer in self.conv_layers:
            x_codes = layer.forward(x_codes)
        return x_codes

    def forward(self, x_real: np.ndarray) -> np.ndarray:
        """End-to-end inference from a real image batch to real logits."""
        codes = self.quantize_input(x_real)
        codes = self.forward_codes(codes)
        if self.pool is not None:
            codes = self.pool.forward(codes)
        if self.classifier is not None:
            return self.classifier.forward(codes)
        return codes.astype(np.float64)

    def predict(self, x_real: np.ndarray) -> np.ndarray:
        """Class predictions for a real image batch."""
        return np.argmax(self.forward(x_real), axis=1)

    def compile(self, options=None):
        """Compile the graph into an :class:`~repro.inference.plan.ExecutionPlan`.

        ``options`` is a :class:`repro.runtime.CompileOptions`; ``None``
        compiles with the production defaults.  The plan precomputes
        per-layer GEMM-form weights, requantization constants and
        backend dispatch (narrowest exact accumulator under the
        weight-data refined bound), runs range validation only at the
        network boundary, stores activation codes at container width
        (uint8 for the paper's networks) inside a static activation
        arena (planned eagerly when ``options.input_hw`` is given),
        runs each depthwise layer as a loop over cache-sized unfold
        tiles, and exposes a tiled ``run_batched`` for large sweeps.  Outputs are
        bit-identical to this interpreted engine.
        """
        from repro.inference.plan import ExecutionPlan

        return ExecutionPlan(self, options)

    def weight_storage_bytes(self) -> int:
        total = sum(l.weight_storage_bytes() for l in self.conv_layers)
        if self.classifier is not None:
            total += self.classifier.weight_storage_bytes()
        return total
