"""Exactness bounds of the GEMM tiers the compiled plan dispatches to.

The float BLAS tiers are bit-identical to the int64 einsum reference
exactly when the worst-case accumulator fits the significand; these
tests pin the bound formulas, the tier boundaries and the int64
reference's validation contract.
"""

import numpy as np
import pytest

from repro.inference.kernels import (
    FLOAT32_EXACT_BITS,
    FLOAT64_EXACT_BITS,
    exact_gemm_dtype_for_bound,
    int_conv2d,
    int_depthwise_conv2d,
    int_linear,
    max_abs_accumulator,
)
from repro.nn.functional import im2col


def _tier(k_reduction, x_bits, w_bits):
    """The float dtype an a-priori corner-case bound dispatches to."""
    return exact_gemm_dtype_for_bound(max_abs_accumulator(k_reduction, x_bits, w_bits))


class TestExactnessBound:
    def test_bound_formula(self):
        assert max_abs_accumulator(9, 8, 8) == 9 * 255 * 255

    @pytest.mark.parametrize("bits", [2, 4, 8])
    def test_paper_regimes_are_exact(self, bits):
        # Largest reduction in MobileNetV1_224_1.0 is the fc layer (k=1024).
        assert _tier(1024, bits, bits) is not None

    def test_bound_rejects_wide_operands(self):
        # 32-bit operands overflow the float64 significand even at k=10.
        assert _tier(10, 32, 32) is None
        assert _tier(10, 8, 8) is not None

    def test_kernel_falls_back_when_bound_exceeded(self):
        """32-bit operands have no exact float tier, and the int64
        reference stays exact where no float significand would."""
        rng = np.random.default_rng(0)
        assert _tier(2 * 9, 32, 32) is None
        # 2^29 codes: 18 products stay below 2^63 but far above 2^53.
        x = rng.integers(0, 2 ** 29, size=(1, 2, 4, 4))
        w = rng.integers(0, 2 ** 29, size=(2, 2, 3, 3))
        phi = int_conv2d(x, w, 0, 0, x_bits=32, w_bits=32)
        # Python-int reference for one output (no wraparound anywhere).
        exact = sum(int(a) * int(b) for a, b in zip(x[0, :, :3, :3].ravel(),
                                                   w[1].ravel()))
        assert exact >= 2 ** FLOAT64_EXACT_BITS
        assert int(phi[0, 1, 0, 0]) == exact

    def test_dtype_tiering(self):
        # Depthwise 8x8 (k=9) fits float32; a 1024-wide 8x8 reduction needs float64.
        assert _tier(9, 8, 8) == np.float32
        assert _tier(1024, 8, 8) == np.float64
        assert max_abs_accumulator(9, 8, 8) < 2 ** FLOAT32_EXACT_BITS
        assert max_abs_accumulator(1024, 8, 8) < 2 ** FLOAT64_EXACT_BITS

    def test_float32_tier_boundary_is_exact(self):
        """k just below the float32 cutoff: an sgemm over the corner-case
        operands still matches the int64 reference."""
        # k = 256 channels of 1x1: 256 * 255 * 255 < 2^24, the largest
        # 8x8-bit reduction the float32 tier accepts.
        assert _tier(256, 8, 8) == np.float32
        x = np.full((1, 256, 3, 3), 255, dtype=np.int64)
        w = np.full((4, 256, 1, 1), 255, dtype=np.int64)
        cols = im2col(x.astype(np.float32), 1, 1, 1, 0)
        phi = np.matmul(w.reshape(4, 256).astype(np.float32), cols)
        ref = int_conv2d(x, w, 0, 0, x_bits=8, w_bits=8)
        assert np.array_equal(phi.reshape(ref.shape), ref)


class TestReferenceRangeCheck:
    """The int64 reference kernels range-check both operands on every
    call: there is no switch that skips the scan."""

    @pytest.mark.parametrize("kernel", [int_conv2d, int_depthwise_conv2d],
                             ids=["conv", "dw"])
    @pytest.mark.parametrize("operand", ["activation", "weight"])
    def test_out_of_range_conv_codes_rejected(self, kernel, operand):
        x = np.zeros((1, 1, 3, 3), dtype=np.int64)
        w = np.zeros((1, 1, 3, 3), dtype=np.int64)
        (x if operand == "activation" else w)[0, 0, 1, 1] = 300
        with pytest.raises(ValueError, match=f"{operand}.*out of UINT8 range"):
            kernel(x, w, 0, 0, x_bits=8, w_bits=8)

    @pytest.mark.parametrize("operand", ["activation", "weight"])
    def test_out_of_range_linear_codes_rejected(self, operand):
        x = np.zeros((1, 4), dtype=np.int64)
        w = np.zeros((2, 4), dtype=np.int64)
        (x if operand == "activation" else w)[0, 2] = 300
        with pytest.raises(ValueError, match=f"{operand}.*out of UINT8 range"):
            int_linear(x, w, 0, 0, x_bits=8, w_bits=8)
