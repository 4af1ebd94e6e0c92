"""Narrow-dtype-native execution: container dtypes end to end.

Covers the container-dtype plumbing (quantizer -> QuantizedTensor ->
packing -> arena -> plan -> export), the weight-data refined accumulator
bound, the forced int32 MCU-accumulator backend (including max-magnitude
codes at the int32 boundary), parity of every backend with the int64
reference, and the headline memory contract: for a pure 8-bit network
the arena's physical (container-width) code bytes equal
``core.memory_model.rw_peak_bytes`` exactly — no int64 inflation.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.memory_model import MemoryModel
from repro.core.policy import QuantMethod, QuantPolicy
from repro.core.quantizer import QuantSpec, quantize_affine
from repro.inference.export import export_network, validate_export
from repro.inference.int_tensor import QuantizedTensor
from repro.inference.kernels import (
    INT32_EXACT_BITS,
    blas_gemm_dtype,
    int32_gemm_is_exact,
    int_einsum_gemm,
    int_linear,
    max_abs_accumulator,
    refined_max_abs_accumulator,
)
from repro.inference.packing import (
    container_dtype,
    pack_subbyte,
    shifted_container_dtype,
    unpack_subbyte,
)
from repro.inference.testing import integer_network_from_spec, random_network
from repro.mcu.deploy import assert_arena_fits
from repro.mcu.device import MCUDevice
from repro.models.model_zoo import all_mobilenet_configs, mobilenet_v1_spec
from repro.runtime import CompileOptions

_ZOO = all_mobilenet_configs(num_classes=5)


# ----------------------------------------------------------------------
# Container dtypes and packing round trips
# ----------------------------------------------------------------------
class TestContainerDtypes:
    def test_code_containers(self):
        assert container_dtype(2) == np.uint8
        assert container_dtype(4) == np.uint8
        assert container_dtype(8) == np.uint8
        assert container_dtype(16) == np.uint16
        assert container_dtype(8, signed=True) == np.int8

    def test_shifted_containers(self):
        # x - Z spans +-(2^Q - 1): one bit more than the code itself.
        assert shifted_container_dtype(4) == np.int8
        assert shifted_container_dtype(7) == np.int8
        assert shifted_container_dtype(8) == np.int16
        assert shifted_container_dtype(16) == np.int32

    def test_invalid_bits_rejected(self):
        with pytest.raises(ValueError):
            container_dtype(0)
        with pytest.raises(ValueError):
            shifted_container_dtype(0)

    def test_quantize_affine_emits_container(self):
        spec = QuantSpec(bits=4)
        q = quantize_affine(np.linspace(-1, 1, 7), 0.1, 8, spec)
        assert q.dtype == np.uint8
        signed = quantize_affine(np.linspace(-1, 1, 7), 0.1, 0, QuantSpec(bits=8, signed=True))
        assert signed.dtype == np.int8

    @pytest.mark.parametrize("bits", [2, 4, 8])
    def test_quantized_tensor_holds_container(self, rng, bits):
        data = rng.integers(0, 2 ** bits, size=(3, 5))
        qt = QuantizedTensor(data, scale=0.1, zero_point=1, bits=bits)
        assert qt.data.dtype == container_dtype(bits)
        assert qt.container_bytes() == data.size
        restored = QuantizedTensor.from_packed(
            qt.packed_bytes(), data.shape, 0.1, 1, bits
        )
        assert restored.data.dtype == container_dtype(bits)
        assert np.array_equal(restored.data, qt.data)


@settings(max_examples=80, deadline=None)
@given(
    data=st.data(),
    bits=st.sampled_from([2, 4, 8]),
    n=st.integers(min_value=0, max_value=257),
)
def test_property_pack_unpack_roundtrip_container(data, bits, n):
    """pack -> unpack lands in the narrow container, bit-exactly, and the
    extreme codes (0 and 2^Q - 1) survive the trip."""
    values = data.draw(
        st.lists(st.integers(0, 2 ** bits - 1), min_size=n, max_size=n)
    )
    arr = np.array(values, dtype=container_dtype(bits))
    back = unpack_subbyte(pack_subbyte(arr, bits), bits, n)
    assert back.dtype == container_dtype(bits)
    assert np.array_equal(back, arr)
    # An explicit wider dtype is still honoured (legacy int64 escape hatch).
    wide = unpack_subbyte(pack_subbyte(arr, bits), bits, n, dtype=np.int64)
    assert wide.dtype == np.int64
    assert np.array_equal(wide, arr)


# ----------------------------------------------------------------------
# Accumulator bounds: int32 boundary and the refined weight-data bound
# ----------------------------------------------------------------------
class TestInt32Boundary:
    # Largest k for which an 8x8-bit reduction of max-magnitude codes
    # still fits the int32 accumulator: k * 255 * 255 < 2^31.
    K_MAX = (1 << INT32_EXACT_BITS) // (255 * 255)

    @staticmethod
    def _corner_classifier(k):
        """A k-wide classifier whose shifted weights all sit at -255."""
        from repro.inference.engine import IntegerLinearLayer, IntegerNetwork

        layer = IntegerLinearLayer(
            name="fc", weights_q=np.zeros((2, k), dtype=np.int64),
            z_w=np.array(255), s_w=np.array([1.0]), z_x=0, s_in=1.0,
            bias=None, in_bits=8, w_bits=8,
        )
        return IntegerNetwork(classifier=layer)

    def test_bound_flips_exactly_at_k_max(self):
        from repro.runtime import CompileOptions

        assert int32_gemm_is_exact(self.K_MAX, 8, 8)
        assert not int32_gemm_is_exact(self.K_MAX + 1, 8, 8)
        int32 = CompileOptions(backend="int32")
        plan = self._corner_classifier(self.K_MAX).compile(int32)
        assert plan.classifier.backend == "int32"
        with pytest.raises(ValueError, match="int32 accumulation overflows"):
            self._corner_classifier(self.K_MAX + 1).compile(int32)

    def test_max_magnitude_codes_at_the_boundary_are_exact(self):
        """All-corner codes at the largest admissible k: the compiled
        int32 path must reproduce the int64 reference at |Phi| within one
        product of the int32 limit."""
        from repro.inference.engine import IntegerLinearLayer
        from repro.inference.plan import CompiledLinear

        k = self.K_MAX
        x = np.full((1, k), 255, dtype=np.int64)
        w = np.zeros((2, k), dtype=np.int64)  # z_w = 255 -> shifted -255
        layer = IntegerLinearLayer(
            name="fc", weights_q=w, z_w=np.array(255), s_w=np.array([1.0]),
            z_x=0, s_in=1.0, bias=None, in_bits=8, w_bits=8,
        )
        mcu = CompiledLinear(layer, backend="int32")
        assert mcu.gemm_dtype == np.int32
        phi64 = int_linear(x, w, 0, 255)
        assert np.array_equal(mcu(x), phi64.astype(np.float64))
        assert np.array_equal(mcu(x), layer.forward(x))
        assert phi64[0, 0] == -k * 255 * 255
        assert abs(phi64[0, 0]) < 2 ** 31
        assert abs(phi64[0, 0]) + 255 * 255 >= 2 ** 31  # truly at the edge

    @pytest.mark.parametrize("bits", [2, 4, 8])
    def test_paper_reductions_fit_int32(self, bits):
        # The deepest model-zoo reduction (fc, k=1024) fits int32 at any
        # paper bit width, so the whole zoo can run the MCU-style backend.
        assert int32_gemm_is_exact(1024, bits, bits)


class TestRefinedBound:
    def test_refined_never_exceeds_a_priori(self, rng):
        for _ in range(10):
            k = int(rng.integers(1, 600))
            w = rng.integers(-255, 256, size=(4, k))
            z_x = int(rng.integers(0, 256))
            refined = refined_max_abs_accumulator(w, z_x, 8)
            assert refined <= max_abs_accumulator(k, 8, 8)

    def test_refined_drops_wide_pointwise_to_float32(self):
        """k=512 8x8-bit overflows the a-priori float32 bound, but random
        (realistic) weights keep the refined bound under 2^24 — the
        compiled plan runs those layers through sgemm, bit-exactly."""
        spec = mobilenet_v1_spec(224, 1.0, num_classes=10)
        net = integer_network_from_spec(spec, np.random.default_rng(0))
        plan = net.compile()
        wide_pw = [
            (l, i) for l, i in zip(plan.layers, plan.layer_info())
            if i.kind == "pw" and l.k_reduction >= 512
        ]
        assert wide_pw, "expected wide pointwise layers in 224_1.0"
        promoted = [i for _, i in wide_pw if i.gemm_dtype == "float32"]
        assert promoted, "refined bound promoted no wide layer to float32"
        for layer, info in wide_pw:
            assert blas_gemm_dtype(layer.k_reduction, 8, 8) == np.float64
            assert info.acc_bound == layer.acc_bound
        # Worst-case (all-corner) weights must NOT be promoted.
        corner = np.full((4, 512), 255, dtype=np.int64)
        assert refined_max_abs_accumulator(corner, 0, 8) == max_abs_accumulator(512, 8, 8)

    def test_refined_dispatch_stays_bit_exact(self):
        spec = mobilenet_v1_spec(64, 1.0, num_classes=10)
        net = integer_network_from_spec(spec, np.random.default_rng(3))
        x = np.random.default_rng(4).uniform(0, 1, size=(2, 3, 64, 64))
        assert np.array_equal(net.forward(x), net.compile().run(x))

    def test_split_k_sgemm_engages_and_stays_bit_exact(self):
        """A k=1024 pointwise layer whose refined bound exceeds 2^24 runs
        as chunked sgemms with exact float64 accumulation; each chunk's
        own refined bound must clear the float32 significand."""
        from repro.inference.plan import _split_k_chunks

        spec = mobilenet_v1_spec(64, 1.0, num_classes=10)
        net = integer_network_from_spec(spec, np.random.default_rng(3))
        plan = net.compile()
        split = [l for l in plan.layers if l.split_k is not None]
        assert split, "expected a split-K layer in the 1024-channel stack"
        for layer in split:
            assert layer.gemm_dtype == np.float32
            assert layer.acc_dtype == np.float64
            assert layer.split_k[0][0] == 0
            assert layer.split_k[-1][1] == layer.k_reduction
            for (_, a), (b, _) in zip(layer.split_k, layer.split_k[1:]):
                assert a == b  # contiguous partition
        x = np.random.default_rng(4).uniform(0, 1, size=(2, 3, 64, 64))
        assert np.array_equal(net.forward(x), plan.run(x))
        # All-corner weights cannot be partitioned into few small chunks.
        corner = np.full((4, 4096), 255, dtype=np.int64)
        assert _split_k_chunks(corner, 0, 8) is None


def test_int_einsum_gemm_k_tiling_bit_exact(rng):
    """The K-tiled int64 fallback GEMM equals the untiled contraction
    (integer addition is associative) across tile boundaries."""
    for k in (7, 512, 513, 1300):
        w2 = rng.integers(-255, 256, size=(5, k))
        cols = rng.integers(-255, 256, size=(2, k, 9))
        ref = np.einsum("ok,nkl->nol", w2, cols)
        assert np.array_equal(int_einsum_gemm(w2, cols), ref)
        out = np.empty_like(ref)
        assert int_einsum_gemm(w2, cols, out=out) is out
        assert np.array_equal(out, ref)


# ----------------------------------------------------------------------
# Narrow plan parity and the physical-memory contract
# ----------------------------------------------------------------------
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2 ** 16), bits=st.sampled_from([2, 4, 8]))
def test_property_narrow_wide_and_int32_plans_agree(seed, bits):
    """Random topologies: the default (narrowest exact accumulator) plan,
    the forced wide int64-accumulator plan, the forced-int32 MCU plan and
    the interpreted reference all produce identical results, every plan
    storing container-width codes."""
    net = random_network(
        np.random.default_rng(seed), resolution=11, act_bits=bits, w_bits=bits
    )
    x = np.random.default_rng(seed + 1).uniform(0, 1, size=(2, 3, 11, 11))
    ref = net.forward(x)
    narrow = net.compile()
    wide = net.compile(CompileOptions(backend="int64"))
    mcu = net.compile(CompileOptions(backend="int32"))
    assert np.array_equal(ref, narrow.run(x))
    assert np.array_equal(ref, wide.run(x))
    assert np.array_equal(ref, mcu.run(x))
    codes = net.quantize_input(x)
    assert np.array_equal(narrow.run_codes(codes), net.forward_codes(codes))
    assert np.array_equal(narrow.run_codes(codes), wide.run_codes(codes))


def test_fused_kernel_accepts_narrow_codes_with_padding():
    """Regression: the padded zero-point shift must widen uint8 codes
    below z_x instead of wrapping them (the subtract loop has to be
    pinned to the GEMM dtype) ahead of a depthwise layer's tiles."""
    spec = mobilenet_v1_spec(32, 0.25, num_classes=5)
    net = integer_network_from_spec(spec, np.random.default_rng(0))
    dw = next(l for l in net.conv_layers if l.kind == "dw" and l.padding > 0)
    dw.params.z_x = 200  # wraps any uint8 code < 200 if the loop runs in uint8
    x = np.random.default_rng(1).uniform(0, 1, size=(2, 3, 32, 32))
    ref = net.forward(x)
    assert np.array_equal(ref, net.compile().run(x))


def test_narrow_codes_come_back_in_container_dtype():
    spec = mobilenet_v1_spec(32, 0.25, num_classes=5)
    net = integer_network_from_spec(spec, np.random.default_rng(0))
    plan = net.compile()
    x = np.random.default_rng(1).uniform(0, 1, size=(2, 3, 32, 32))
    codes = plan.quantize_input(x)
    assert codes.dtype == np.uint8
    out = plan.run_codes(codes)
    assert out.dtype == np.uint8


@pytest.mark.parametrize("spec", _ZOO, ids=lambda s: s.label)
def test_zoo_physical_code_bytes_equal_rw_peak(spec):
    """The headline contract: for every pure 8-bit model-zoo config the
    container-width ping-pong pair is physically exactly the Eq. 7 peak
    of core.memory_model — not 8x it."""
    net = integer_network_from_spec(spec, np.random.default_rng(0))
    res = spec.resolution
    plan = net.compile()
    arena = plan.arena_for((res, res))
    policy = QuantPolicy.uniform(spec, method=QuantMethod.PC_ICN, bits=8)
    rw_peak = MemoryModel(spec).rw_peak_bytes(policy)
    assert arena.physical_code_bytes(1) == rw_peak
    assert arena.logical_rw_peak_bytes == rw_peak


def test_arena_allocation_matches_plan_tracemalloc():
    """Slab allocation measured with tracemalloc: the arena allocates
    exactly its planned bytes (codes pair == Eq. 7 peak, no int64
    inflation)."""
    spec = mobilenet_v1_spec(64, 0.25, num_classes=10)
    net = integer_network_from_spec(spec, np.random.default_rng(0))
    plan = net.compile()
    arena = plan.arena_for((64, 64))
    tracemalloc.start()
    arena.ensure(1)
    allocated, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    planned = arena.planned_bytes(1)
    # numpy adds a constant per-array header on top of the raw slabs.
    slack = 16 * 1024
    assert planned <= allocated <= planned + slack
    policy = QuantPolicy.uniform(spec, method=QuantMethod.PC_ICN, bits=8)
    assert arena.physical_code_bytes(1) == MemoryModel(spec).rw_peak_bytes(policy)


def test_subbyte_containers_stay_one_byte():
    """2/4-bit activations keep the uint8 container: physical >= logical
    (the packed Eq. 7 figure), never int64-inflated."""
    spec = mobilenet_v1_spec(32, 0.25, num_classes=5)
    net = integer_network_from_spec(
        spec, np.random.default_rng(0), act_bits=4, w_bits=4
    )
    plan = net.compile()
    arena = plan.arena_for((32, 32))
    assert all(p.out_itemsize == 1 for p in arena.plans if p.kind != "fc")
    assert arena.physical_code_bytes(1) >= arena.logical_rw_peak_bytes
    assert arena.physical_code_bytes(1) == 2 * arena.logical_rw_peak_bytes


def test_assert_arena_fits_checks_physical_inflation():
    spec = mobilenet_v1_spec(32, 0.25, num_classes=10)
    net = integer_network_from_spec(spec, np.random.default_rng(0))
    device = MCUDevice(name="big", flash_bytes=2 * 1024 ** 2,
                       ram_bytes=512 * 1024, clock_hz=400_000_000)
    plan = net.compile()
    peak = assert_arena_fits(plan, device, (32, 32))
    arena = plan.arena_for((32, 32))
    assert arena.physical_code_bytes(1) == peak
    # An artificially inflated code slab must trip the deployment gate.
    arena.code_slot_bytes_per_image[0] *= 8
    with pytest.raises(ValueError, match="exceed the Eq. 7 RW peak"):
        assert_arena_fits(plan, device, (32, 32))


# ----------------------------------------------------------------------
# Export: packed narrow blobs
# ----------------------------------------------------------------------
class TestExportNarrowBlobs:
    @pytest.mark.parametrize("bits", [2, 4, 8])
    def test_validate_export_round_trip(self, bits):
        spec = mobilenet_v1_spec(32, 0.25, num_classes=5)
        net = integer_network_from_spec(
            spec, np.random.default_rng(0), act_bits=bits, w_bits=bits
        )
        exported = export_network(net, input_hw=(32, 32))
        summary = validate_export(exported)
        assert summary["layers"] == len(exported["conv_layers"]) + 1
        assert all(
            e["container_dtype"] == "uint8" for e in exported["conv_layers"]
        )
        assert exported["arena"]["physical_code_bytes"] >= 0

    def test_validate_export_rejects_bit_flip(self):
        """Packing masks codes into range by construction, so corruption
        is caught by the CRC32, not a range scan."""
        spec = mobilenet_v1_spec(32, 0.25, num_classes=5)
        net = integer_network_from_spec(spec, np.random.default_rng(0))
        exported = export_network(net)
        blob = exported["conv_layers"][0]["weights_packed"]
        blob[0] ^= 0x40  # single bit flip, size and range stay valid
        with pytest.raises(ValueError, match="CRC32"):
            validate_export(exported)

    def test_validate_export_rejects_truncated_blob(self):
        spec = mobilenet_v1_spec(32, 0.25, num_classes=5)
        net = integer_network_from_spec(spec, np.random.default_rng(0))
        exported = export_network(net)
        exported["conv_layers"][0]["weights_packed"] = (
            exported["conv_layers"][0]["weights_packed"][:-1]
        )
        with pytest.raises(ValueError, match="packed blob"):
            validate_export(exported)

    def test_validate_export_rejects_wrong_container(self):
        spec = mobilenet_v1_spec(32, 0.25, num_classes=5)
        net = integer_network_from_spec(spec, np.random.default_rng(0))
        exported = export_network(net)
        exported["conv_layers"][0]["container_dtype"] = "int64"
        with pytest.raises(ValueError, match="container"):
            validate_export(exported)

    def test_export_physical_matches_compiled_arena(self):
        spec = mobilenet_v1_spec(64, 0.5, num_classes=5)
        net = integer_network_from_spec(spec, np.random.default_rng(0))
        exported = export_network(net, input_hw=(64, 64))
        arena = net.compile().arena_for((64, 64))
        assert exported["arena"]["physical_code_bytes"] == arena.physical_code_bytes(1)
        assert exported["arena"]["rw_peak_bytes"] == arena.logical_rw_peak_bytes
