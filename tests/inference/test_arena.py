"""Activation-arena safety: arena plan vs. interpreted reference
bit-identity on random networks, planned-peak bounds on measured
allocations, the Eq. 7 cross-check against the analytical memory
model, and the lifetime of the views layers bind to the slabs and of
the per-geometry arenas."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.memory_model import MemoryModel
from repro.core.policy import QuantMethod, QuantPolicy
from repro.inference.arena import (
    MAX_BOUND_BATCHES,
    ActivationArena,
    LayerGeometry,
    SlabSet,
    logical_rw_peak_bytes,
    plan_activations,
)
from repro.inference.plan import MAX_ARENA_GEOMETRIES
from repro.inference.testing import integer_network_from_spec, random_network
from repro.mcu.deploy import assert_arena_fits
from repro.mcu.device import MCUDevice
from repro.models.model_zoo import mobilenet_v1_spec
from repro.runtime import Session, SessionOptions


@given(seed=st.integers(0, 2 ** 16), bits=st.sampled_from([2, 4, 8]))
@settings(deadline=None)
def test_property_arena_matches_no_arena(seed, bits):
    """Random topologies + mixed requant strategies: the arena plan and
    the interpreted reference (which allocates per call) produce
    identical codes and logits."""
    net = random_network(
        np.random.default_rng(seed), resolution=11, act_bits=bits, w_bits=bits
    )
    x = np.random.default_rng(seed + 1).uniform(0, 1, size=(3, 3, 11, 11))
    codes = net.quantize_input(x)
    with_arena = net.compile()
    assert np.array_equal(with_arena.run_codes(codes), net.forward_codes(codes))
    assert np.array_equal(with_arena.run(x), net.forward(x))


@given(seed=st.integers(0, 2 ** 16))
@settings(deadline=None)
def test_property_repeated_runs_reuse_slabs_bit_exactly(seed):
    """Slab reuse must not leak state between calls: alternating inputs
    through one plan matches the interpreted reference on each."""
    net = random_network(np.random.default_rng(seed), resolution=9)
    plan = net.compile()
    rng = np.random.default_rng(seed + 1)
    xa = rng.uniform(0, 1, size=(2, 3, 9, 9))
    xb = rng.uniform(0, 1, size=(4, 3, 9, 9))
    for x in (xa, xb, xa, xb):
        assert np.array_equal(plan.run(x), net.forward(x))


def test_run_codes_returns_owned_copy():
    """run_codes output must survive (and not corrupt) later plan calls."""
    net = random_network(np.random.default_rng(5), resolution=10)
    plan = net.compile()
    codes = net.quantize_input(np.random.default_rng(6).uniform(0, 1, (2, 3, 10, 10)))
    first = plan.run_codes(codes)
    snapshot = first.copy()
    plan.run_codes(net.quantize_input(
        np.random.default_rng(7).uniform(0, 1, (2, 3, 10, 10))
    ))
    assert np.array_equal(first, snapshot)
    first.fill(255)  # caller-side mutation must not poison the arena
    assert np.array_equal(plan.run_codes(codes), snapshot)


@pytest.mark.parametrize("res,width", [(32, 0.25), (64, 0.5)])
def test_logical_rw_peak_matches_memory_model(res, width):
    """The arena's Eq. 7 peak equals core.memory_model.rw_peak_bytes for
    the same spec under the matching uniform policy — the runtime and the
    paper's analytical model agree layer for layer."""
    spec = mobilenet_v1_spec(res, width, num_classes=10)
    net = integer_network_from_spec(spec, np.random.default_rng(0))
    plan = net.compile()
    arena = plan.arena_for((res, res))
    policy = QuantPolicy.uniform(spec, method=QuantMethod.PC_ICN, bits=8)
    model = MemoryModel(spec)
    assert arena.logical_rw_peak_bytes == model.rw_peak_bytes(policy)
    per_layer = model.rw_bytes_per_layer(policy)
    assert [p.rw_bytes for p in arena.plans] == per_layer


def test_measured_peak_allocation_within_planned_arena():
    """With the arena warm, a full trunk pass must not allocate more new
    memory than the compile-time planned arena size (tracemalloc peak)."""
    spec = mobilenet_v1_spec(64, 0.25, num_classes=10)
    net = integer_network_from_spec(spec, np.random.default_rng(0))
    plan = net.compile()
    codes = plan.quantize_input(
        np.random.default_rng(1).uniform(0, 1, size=(4, 3, 64, 64))
    )
    plan.run_codes(codes)  # warm: slabs allocated, einsum paths cached
    planned = plan.arena_for((64, 64)).planned_bytes(4)
    tracemalloc.start()
    plan.run_codes(codes)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak <= planned, f"measured peak {peak} B > planned arena {planned} B"


def test_arena_grows_monotonically_and_planned_bytes_exact():
    net = random_network(np.random.default_rng(8), resolution=12)
    plan = net.compile()
    x_small = np.random.default_rng(9).uniform(0, 1, (2, 3, 12, 12))
    x_large = np.random.default_rng(10).uniform(0, 1, (6, 3, 12, 12))
    plan.run(x_small)
    arena = plan.arena_for((12, 12))
    assert arena.capacity == 2
    assert arena.allocated_bytes == arena.planned_bytes(2)
    plan.run(x_large)
    assert arena.capacity == 6
    plan.run(x_small)  # shrink-free reuse
    assert arena.capacity == 6
    # Growing slabs scale linearly with the batch on top of the fixed
    # (batch-independent) requantization scratch.
    fixed = arena.fixed_bytes
    assert arena.planned_bytes(6) - fixed == 3 * (arena.planned_bytes(2) - fixed)


def test_arena_slab_overflow_rejected():
    net = random_network(np.random.default_rng(11), resolution=10)
    plan = net.compile()
    plan.run(np.random.default_rng(12).uniform(0, 1, (1, 3, 10, 10)))
    arena = plan.arena_for((10, 10))
    with pytest.raises(ValueError, match="arena slab overflow"):
        arena.codes(0, (10 ** 6,), np.uint8)


def test_plan_activations_rejects_collapsing_geometry():
    geom = LayerGeometry(
        name="conv", kind="conv", in_channels=3, out_channels=4,
        kh=7, kw=7, stride=1, padding=0, in_bits=8, out_bits=8,
        gemm_itemsize=4,
    )
    with pytest.raises(ValueError, match="collapses"):
        plan_activations([geom], (4, 4))


def test_slab_set_holds_the_per_slab_maximum():
    """Two geometries whose needs peak in different slabs: the shared set
    holds each slab's maximum, less than one set per geometry."""
    def geometry(c_in, c_out, kh):
        return [LayerGeometry(
            name="conv", kind="conv", in_channels=c_in, out_channels=c_out,
            kh=kh, kw=kh, stride=1, padding=kh // 2, in_bits=8, out_bits=8,
            gemm_itemsize=4,
        )]

    slabs = SlabSet()
    wide_in = ActivationArena(plan_activations(geometry(16, 2, 5), (8, 8)), slabs)
    wide_out = ActivationArena(plan_activations(geometry(2, 16, 1), (8, 8)), slabs)
    assert wide_in.pad_bytes_per_image > wide_out.pad_bytes_per_image
    assert wide_in.acc_bytes_per_image < wide_out.acc_bytes_per_image
    wide_in.ensure(3)
    wide_out.ensure(2)
    assert slabs.sizes == tuple(map(max, wide_in.slab_sizes(), wide_out.slab_sizes()))
    assert slabs.capacity == 3
    assert wide_in.allocated_bytes == wide_out.allocated_bytes == slabs.allocated_bytes
    assert (max(wide_in.planned_bytes(3), wide_out.planned_bytes(3))
            < slabs.allocated_bytes
            < wide_in.planned_bytes(3) + wide_out.planned_bytes(3))


def test_empty_plan_list():
    assert logical_rw_peak_bytes([]) == 0
    arena = ActivationArena([])
    assert arena.bytes_per_image() == 0
    arena.ensure(4)
    assert arena.allocated_bytes == 0


def test_assert_arena_fits_against_device_budget():
    spec = mobilenet_v1_spec(32, 0.25, num_classes=10)
    net = integer_network_from_spec(spec, np.random.default_rng(0))
    plan = net.compile()
    big = MCUDevice(name="big", flash_bytes=2 * 1024 ** 2,
                    ram_bytes=512 * 1024, clock_hz=400_000_000)
    tiny = MCUDevice(name="tiny", flash_bytes=2 * 1024 ** 2,
                     ram_bytes=1024, clock_hz=80_000_000)
    peak = assert_arena_fits(plan, big, (32, 32))
    assert 0 < peak <= big.ram_bytes
    with pytest.raises(ValueError, match="exceeds tiny RW budget"):
        assert_arena_fits(plan, tiny, (32, 32))


def test_describe_reports_arena_peak_and_fused_dispatch():
    spec = mobilenet_v1_spec(32, 0.25, num_classes=10)
    net = integer_network_from_spec(spec, np.random.default_rng(0))
    plan = net.compile()
    text = plan.describe((32, 32), batch_size=8)
    arena = plan.arena_for((32, 32))
    assert f"{arena.planned_bytes(8)} bytes" in text
    assert f"{arena.logical_rw_peak_bytes} bytes" in text
    # Depthwise layers run a tile loop, on wide rows at stride 1; the
    # rest unfold whole.
    for layer, line in zip(plan.layers, text.splitlines()[1:]):
        path = "im2col" if layer.kind != "dw" else "rows" if layer.stride == 1 else "tiles"
        assert line.endswith(path), line
    # Without a planned geometry the summary simply omits the arena block.
    assert "activation arena" not in net.compile().describe()


class TestTiledDepthwiseArena:
    """Depthwise layers unfold tile by tile into the fixed scratch, so the
    per-image cols slab only holds the non-depthwise unfolds."""

    @staticmethod
    def _arena(res, width):
        spec = mobilenet_v1_spec(res, width, num_classes=10)
        net = integer_network_from_spec(spec, np.random.default_rng(0))
        plan = net.compile()
        return plan, plan.arena_for((res, res))

    def test_224_batch8_arena_is_at_most_75_mib(self):
        plan, arena = self._arena(224, 1.0)
        assert arena.planned_bytes(8) <= 75 * 2 ** 20
        conv0 = arena.plans[0]
        assert conv0.kind == "conv"
        assert arena.cols_bytes_per_image == conv0.cols_elems * conv0.gemm_itemsize
        assert all(p.cols_elems == 0 for p in arena.plans if p.kind == "dw")
        # Still exact and linear in the batch.
        assert (arena.planned_bytes(8) - arena.planned_bytes(1)
                == 7 * arena.bytes_per_image())

    def test_128_batch1_arena_is_at_most_2_7_mib(self):
        _, arena = self._arena(128, 0.5)
        assert arena.planned_bytes(1) <= 2.7 * 2 ** 20
        # The tile region and the requant scratch take turns in one
        # fixed slab.
        assert arena.fixed_bytes == max(arena.requant_scratch_bytes, arena.dw_tile_bytes)

    def test_stride1_accumulator_need_counts_the_wide_row_grid(self):
        """A stride-1 depthwise layer accumulates (OH-1)*Wp + OW columns
        per channel; a stride-2 one accumulates OH*OW."""
        spec = mobilenet_v1_spec(32, 0.25, num_classes=10)
        net = integer_network_from_spec(spec, np.random.default_rng(0))
        hw = (24, 40)
        compiled = net.compile().arena_for(hw).plans
        seen = set()
        for layer, p in zip(net.conv_layers, compiled):
            if layer.kind != "dw":
                continue
            c, h, w = p.in_shape
            _, oh, ow = p.out_shape
            wp = w + 2 * layer.padding
            columns = (oh - 1) * wp + ow if layer.stride == 1 else oh * ow
            assert p.acc_elems == c * columns, layer.name
            seen.add(layer.stride)
        assert seen == {1, 2}

    def test_tile_region_is_monotone_in_the_geometry(self):
        spec = mobilenet_v1_spec(64, 0.5, num_classes=10)
        net = integer_network_from_spec(spec, np.random.default_rng(0))
        plan = net.compile()
        sizes = [plan.arena_for((hw, hw)).dw_tile_bytes for hw in range(32, 97, 8)]
        assert sizes == sorted(sizes)


def _mobilenet(resolution=32):
    spec = mobilenet_v1_spec(resolution, 0.25, num_classes=5)
    return integer_network_from_spec(spec, np.random.default_rng(0))


def _images(n, hw, seed=0):
    return np.random.default_rng(seed).uniform(0, 1, (n, 3, *hw))


class TestBindings:
    """Layers bind their views once per input shape; a binding must never
    outlive the slabs it views, and the cache stays bounded."""

    def test_growth_frees_the_old_slabs(self):
        net = _mobilenet()
        plan = net.compile()
        arena = plan.arena_for((32, 32))
        plan.run(_images(1, (32, 32)))
        old_pad = weakref.ref(arena._slabs.slabs["pad"])
        for n in (4, 1):
            x = _images(n, (32, 32), seed=n)
            assert np.array_equal(plan.run(x), net.forward(x))
        gc.collect()
        assert old_pad() is None
        assert arena.capacity == 4

    def test_larger_geometry_growth_drops_every_binding(self):
        net = _mobilenet(64)
        plan = net.compile()
        x = _images(1, (32, 32))
        assert np.array_equal(plan.run(x), net.forward(x))
        small = plan.arena_for((32, 32))
        assert tuple(small._bindings) == (1,)
        old_pad = weakref.ref(small._slabs.slabs["pad"])
        x = _images(3, (64, 64), seed=1)
        assert np.array_equal(plan.run(x), net.forward(x))
        # Growing the plan's slab set for the larger geometry freed the
        # old slabs and dropped the smaller geometry's views at once.
        gc.collect()
        assert old_pad() is None
        assert tuple(small._bindings) == ()
        assert small.allocated_bytes == plan.arena_for((64, 64)).planned_bytes(3)
        x = _images(1, (32, 32), seed=2)
        assert np.array_equal(plan.run(x), net.forward(x))
        gc.collect()
        assert old_pad() is None

    def test_smaller_batch_and_geometry_keep_every_binding(self):
        """Once the set holds the largest geometry and batch, smaller ones
        neither reallocate it nor drop anyone's views."""
        net = _mobilenet(64)
        plan = net.compile()
        plan.run(_images(3, (64, 64)))
        big = plan.arena_for((64, 64))
        slabs = dict(big._slabs.slabs)
        for n, hw in ((1, (32, 32)), (2, (64, 32)), (3, (64, 64))):
            x = _images(n, hw, seed=n)
            assert np.array_equal(plan.run(x), net.forward(x))
        assert all(big._slabs.slabs[k] is v for k, v in slabs.items())
        assert tuple(big._bindings) == (3,)
        assert tuple(plan.arena_for((32, 32))._bindings) == (1,)
        assert big.allocated_bytes == big.planned_bytes(3)

    def test_batch_sizes_bound_is_kept(self):
        net = _mobilenet()
        plan = net.compile()
        arena = plan.arena_for((32, 32))
        x = _images(64, (32, 32))
        ref = net.forward(x)
        # Largest batch first: the slabs never grow again, so every batch
        # size binds on the same slabs and only the LRU bound evicts.
        for n in range(64, 0, -1):
            out = plan.run(x[:n])
            assert len(arena._bindings) <= MAX_BOUND_BATCHES
        assert np.array_equal(out, ref[:1])
        assert tuple(arena._bindings)[-1] == 1
        # An evicted batch size rebinds and stays exact.
        assert 64 not in arena._bindings
        assert np.array_equal(plan.run(x), ref)

    def test_binding_keeps_no_layer_alive(self):
        net = _mobilenet()
        plan = net.compile()
        arena = plan.arena_for((32, 32))
        plan.run(_images(1, (32, 32)))
        layer = weakref.ref(plan.layers[0])
        plan.layers = []
        gc.collect()
        assert layer() is None
        assert tuple(arena._bindings) == (1,)


def test_per_geometry_arenas_are_bounded():
    """Every new input geometry plans an arena; a plan keeps only the most
    recently used few, and all of them run in one slab set."""
    net = _mobilenet()
    session = Session(net, options=SessionOptions(input_hw=(32, 32)))
    plan = session.plan
    x = _images(1, (32, 32))
    # Warm the reference engine too: it caches its shifted weights.
    assert np.array_equal(session.run(x), net.forward(x))
    geometries = [(hw, hw) for hw in range(33, 96, 2)]
    assert len(geometries) == 32
    largest = 0
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        for i, hw in enumerate(geometries):
            x = _images(1, hw, seed=i)
            assert np.array_equal(session.run(x), net.forward(x)), hw
            largest = max(largest, plan.arena_for(hw).allocated_bytes)
            assert len(plan._arenas) <= MAX_ARENA_GEOMETRIES
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    # One slab set (the largest geometry's), plus the last input and the
    # retained arenas' layer plans and bindings, which together take less
    # than a second set — not one slab set per retained geometry.
    assert largest == plan.arena_for(geometries[-1]).planned_bytes(1)
    assert retained <= 2 * largest, (retained, largest)
    assert geometries[0] not in plan._arenas
    x = _images(1, geometries[0], seed=99)
    assert np.array_equal(session.run(x), net.forward(x))
