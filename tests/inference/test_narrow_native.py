"""Narrow-dtype-native execution: container dtypes end to end.

Covers the container-dtype plumbing (quantizer -> packing -> arena ->
plan -> export), the weight-data refined accumulator bound, parity of the
plan with the int64 reference on random topologies, and the headline
memory contract: for a pure 8-bit network
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
from repro.inference.engine import IntegerLinearLayer, IntegerNetwork
from repro.inference.kernels import (
    FLOAT32_EXACT_BITS,
    exact_gemm_dtype_for_bound,
    int_einsum_gemm,
    int_linear,
    max_abs_accumulator,
    refined_max_abs_accumulator,
)
from repro.inference.packing import container_dtype, pack_subbyte, unpack_subbyte
from repro.inference.testing import integer_network_from_spec, random_network
from repro.mcu.deploy import assert_arena_fits
from repro.mcu.device import MCUDevice
from repro.models.model_zoo import all_mobilenet_configs, mobilenet_v1_spec

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

    def test_invalid_bits_rejected(self):
        with pytest.raises(ValueError):
            container_dtype(0)

    def test_quantize_affine_emits_container(self):
        spec = QuantSpec(bits=4)
        q = quantize_affine(np.linspace(-1, 1, 7), 0.1, 8, spec)
        assert q.dtype == np.uint8
        signed = quantize_affine(np.linspace(-1, 1, 7), 0.1, 0, QuantSpec(bits=8, signed=True))
        assert signed.dtype == np.int8


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
# Accumulator bounds: the MCU's int32 MAC, the float32 tier's edge and
# the refined weight-data bound
# ----------------------------------------------------------------------
class TestInt32Boundary:
    @pytest.mark.parametrize("bits", [2, 4, 8])
    def test_paper_reductions_fit_int32(self, bits):
        # The deepest model-zoo reduction (fc, k=1024) fits the MCU
        # kernels' int32 accumulator at any paper bit width.
        assert max_abs_accumulator(1024, bits, bits) < 2 ** 31


class TestFloat32Boundary:
    """The sgemm tier ends where the refined bound reaches 2^24: at the
    largest admissible reduction all-corner codes run on float32, and one
    more column moves the layer to float64, both exact."""

    @staticmethod
    def _k_max(bits):
        # Largest k whose all-corner reduction k * (2^b - 1)^2 is < 2^24.
        return ((1 << FLOAT32_EXACT_BITS) - 1) // (2 ** bits - 1) ** 2

    @staticmethod
    def _corner_classifier(k, bits):
        """A k-wide classifier whose shifted weights all sit at -(2^b - 1),
        and its compiled form."""
        layer = IntegerLinearLayer(
            name="fc", weights_q=np.zeros((2, k), dtype=np.int64),
            z_w=np.array(2 ** bits - 1), s_w=np.array([1.0]), z_x=0, s_in=1.0,
            bias=None, in_bits=bits, w_bits=bits,
        )
        return layer, IntegerNetwork(classifier=layer).compile().classifier

    @pytest.mark.parametrize("bits", [4, 8])
    def test_bound_flips_exactly_at_k_max(self, bits):
        k = self._k_max(bits)
        assert (max_abs_accumulator(k, bits, bits) < 2 ** FLOAT32_EXACT_BITS
                <= max_abs_accumulator(k + 1, bits, bits))
        for width, dtype in ((k, np.float32), (k + 1, np.float64)):
            _, fc = self._corner_classifier(width, bits)
            assert fc.acc_bound == max_abs_accumulator(width, bits, bits)
            assert fc.backend == "blas" and fc.gemm_dtype == dtype

    @pytest.mark.parametrize("bits", [4, 8])
    def test_max_magnitude_codes_at_the_boundary_are_exact(self, bits):
        """All-corner codes on either side of the edge: the compiled
        classifier reproduces the int64 reference at |Phi| within one
        product of 2^24 (at 8 bits, past it |Phi| is odd, which float32
        cannot hold)."""
        qmax = 2 ** bits - 1
        k = self._k_max(bits)
        for width in (k, k + 1):
            layer, fc = self._corner_classifier(width, bits)
            x = np.full((1, width), qmax, dtype=np.int64)
            phi = int_linear(x, layer.weights_q, 0, qmax, x_bits=bits, w_bits=bits)
            assert phi[0, 0] == -width * qmax * qmax
            assert np.array_equal(fc(x), phi.astype(np.float64))
            assert np.array_equal(fc(x), layer.forward(x))
        assert abs(phi[0, 0]) - qmax * qmax < 2 ** FLOAT32_EXACT_BITS <= abs(phi[0, 0])


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
            a_priori = max_abs_accumulator(layer.k_reduction, 8, 8)
            assert exact_gemm_dtype_for_bound(a_priori) == np.float64
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


def _split_k_chunks_loop(w_shift, z_x, x_bits):
    """The column-by-column greedy cut ``_split_k_chunks`` replaces: the
    oracle its binary search must reproduce exactly."""
    x_mag = max(int(z_x), 2 ** x_bits - 1 - int(z_x))
    contrib = np.abs(w_shift.reshape(w_shift.shape[0], -1)).astype(np.int64) * x_mag
    limit = 1 << FLOAT32_EXACT_BITS
    chunks, start = [], 0
    run = np.zeros(contrib.shape[0], dtype=np.int64)
    for j in range(contrib.shape[1]):
        run += contrib[:, j]
        if int(run.max()) >= limit and j > start:
            chunks.append((start, j))
            start = j
            run = contrib[:, j].copy()
        if len(chunks) >= 4:  # at most 4 chunks
            return None
    chunks.append((start, contrib.shape[1]))
    if len(chunks) < 2:
        return None
    for k0, k1 in chunks:
        if int(contrib[:, k0:k1].sum(axis=1).max()) >= limit:
            return None
    return chunks


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2 ** 32 - 1),
    out_channels=st.integers(1, 12),
    k=st.integers(8, 400),
    x_bits=st.integers(2, 16),
    z_frac=st.floats(0.0, 1.0),
)
def test_split_k_binary_search_matches_the_column_loop(seed, out_channels, k, x_bits,
                                                       z_frac):
    """The cut over cumulative sums gives the loop's chunks on layers
    drawn around the float32 limit: from one chunk to past the 4-chunk
    cap, and with a column that alone exceeds the limit in a fifth of
    the draws."""
    from repro.inference.plan import _split_k_chunks

    rng = np.random.default_rng(seed)
    z_x = int(round(z_frac * (2 ** x_bits - 1)))
    x_mag = max(z_x, 2 ** x_bits - 1 - z_x)
    # Rows average |W'| ~ w_max / 2, so a row sums to ~`limits` limits.
    limits = rng.uniform(0.5, 4.0)
    w_max = max(1, int(2 * limits * 2 ** FLOAT32_EXACT_BITS / (x_mag * k)))
    w_shift = rng.integers(-w_max, w_max + 1, size=(out_channels, k, 1, 1))
    if rng.random() < 0.2:
        w_shift[rng.integers(out_channels), rng.integers(k)] = \
            2 ** FLOAT32_EXACT_BITS // x_mag + 1
    expected = _split_k_chunks_loop(w_shift, z_x, x_bits)
    assert _split_k_chunks(w_shift, z_x, x_bits) == expected


def test_split_k_cut_is_exact_at_the_limit():
    """With x_mag = 255, a running sum of 65793 reaches 2^24 - 1 and
    65794 reaches 2^24 + 254: the cut falls on the column that crosses
    2^24, never on the one just below it."""
    from repro.inference.plan import _split_k_chunks

    w_shift = np.array([[1, 65792, 1, 65792]])
    assert _split_k_chunks_loop(w_shift, 0, 8) == [(0, 2), (2, 4)]
    assert _split_k_chunks(w_shift, 0, 8) == [(0, 2), (2, 4)]


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
def test_property_random_topology_plan_matches_reference(seed, bits):
    """Random topologies: the plan (narrowest exact accumulator per
    layer, container-width codes) and the interpreted reference produce
    identical logits and trunk codes."""
    net = random_network(
        np.random.default_rng(seed), resolution=11, act_bits=bits, w_bits=bits
    )
    x = np.random.default_rng(seed + 1).uniform(0, 1, size=(2, 3, 11, 11))
    plan = net.compile()
    assert np.array_equal(net.forward(x), plan.run(x))
    codes = net.quantize_input(x)
    assert np.array_equal(plan.run_codes(codes), net.forward_codes(codes))


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
    plan._slabs.hold(arena, 1, lambda: None)
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


def test_assert_arena_fits_checks_physical_inflation(monkeypatch):
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
    monkeypatch.setattr(plan, "arena_for", lambda hw: arena)
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
