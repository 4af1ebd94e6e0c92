"""Activation-arena safety: arena plan vs. interpreted reference
bit-identity on random networks, planned-peak bounds on measured
allocations, the Eq. 7 cross-check against the analytical memory
model, and the lifetime of the views a plan binds per input shape."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.memory_model import MemoryModel
from repro.core.policy import QuantMethod, QuantPolicy
from repro.inference.arena import (
    ActivationArena,
    SlabSet,
    logical_rw_peak_bytes,
    plan_activations,
)
from repro.inference.plan import MAX_BOUND_SHAPES, CompiledConvLayer
from repro.inference.testing import (
    integer_network_from_spec,
    random_conv_layer,
    random_network,
)
from repro.mcu.deploy import assert_arena_fits
from repro.mcu.device import MCUDevice
from repro.models.model_zoo import mobilenet_v1_spec
from repro.runtime import Session


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
    assert plan._slabs.capacity == 2
    assert plan._slabs.allocated_bytes == arena.planned_bytes(2)
    plan.run(x_large)
    assert plan._slabs.capacity == 6
    plan.run(x_small)  # shrink-free reuse
    assert plan._slabs.capacity == 6
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


def _compiled_conv(c_in, c_out, kernel, padding):
    return CompiledConvLayer(random_conv_layer(
        np.random.default_rng(c_in * c_out + kernel), "conv", c_in, c_out,
        kernel=kernel, padding=padding))


def test_plan_activations_rejects_collapsing_geometry():
    with pytest.raises(ValueError, match="collapses"):
        plan_activations([_compiled_conv(3, 4, 7, 0)], (4, 4))


def test_slab_set_holds_the_per_slab_maximum():
    """Two geometries whose needs peak in different slabs: the shared set
    holds each slab's maximum, less than one set per geometry."""
    slabs = SlabSet()
    wide_in = ActivationArena(plan_activations([_compiled_conv(16, 2, 5, 2)], (8, 8)), slabs)
    wide_out = ActivationArena(plan_activations([_compiled_conv(2, 16, 1, 0)], (8, 8)), slabs)
    assert wide_in.pad_bytes_per_image > wide_out.pad_bytes_per_image
    assert wide_in.acc_bytes_per_image < wide_out.acc_bytes_per_image
    slabs.hold(wide_in, 3, lambda: None)
    slabs.hold(wide_out, 2, lambda: None)
    assert slabs.sizes == tuple(map(max, wide_in.slab_sizes(), wide_out.slab_sizes()))
    assert slabs.capacity == 3
    assert (max(wide_in.planned_bytes(3), wide_out.planned_bytes(3))
            < slabs.allocated_bytes
            < wide_in.planned_bytes(3) + wide_out.planned_bytes(3))


def test_empty_plan_list():
    assert logical_rw_peak_bytes([]) == 0
    slabs = SlabSet()
    arena = ActivationArena([], slabs)
    assert arena.bytes_per_image() == 0
    slabs.hold(arena, 4, lambda: None)
    assert slabs.allocated_bytes == 0


def test_arena_for_is_a_pure_size_plan():
    """Planning a geometry allocates and binds nothing, and is not cached."""
    plan = _mobilenet().compile()
    arena = plan.arena_for((32, 32))
    assert arena is not plan.arena_for((32, 32))
    assert arena.planned_bytes(1) > 0
    assert plan._slabs.allocated_bytes == 0
    assert not plan._bound


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
    # Without a bound geometry the summary simply omits the arena block;
    # with some, it describes the one bound most recently.
    fresh = net.compile()
    assert "activation arena" not in fresh.describe()
    fresh.run(np.zeros((1, 3, 32, 32)))
    fresh.run(np.zeros((1, 3, 64, 48)))
    assert "activation arena (input 64x48)" in fresh.describe()


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


class TestBoundShapes:
    """The plan binds each input shape once; a bound trunk must never
    outlive the slabs it views, and the cache stays bounded."""

    def test_growth_frees_the_old_slabs(self):
        net = _mobilenet()
        plan = net.compile()
        plan.run(_images(1, (32, 32)))
        old_pad = weakref.ref(plan._slabs.slabs["pad"])
        for n in (4, 1):
            x = _images(n, (32, 32), seed=n)
            assert np.array_equal(plan.run(x), net.forward(x))
        gc.collect()
        assert old_pad() is None
        assert plan._slabs.capacity == 4
        assert list(plan._bound) == [(4, 3, 32, 32), (1, 3, 32, 32)]

    def test_larger_geometry_drops_every_bound_trunk(self):
        net = _mobilenet(64)
        plan = net.compile()
        x = _images(1, (32, 32))
        assert np.array_equal(plan.run(x), net.forward(x))
        assert list(plan._bound) == [(1, 3, 32, 32)]
        old_pad = weakref.ref(plan._slabs.slabs["pad"])
        x = _images(3, (64, 64), seed=1)
        assert np.array_equal(plan.run(x), net.forward(x))
        # Growing the plan's slab set for the larger geometry freed the
        # old slabs and dropped the smaller geometry's views at once.
        gc.collect()
        assert old_pad() is None
        assert list(plan._bound) == [(3, 3, 64, 64)]
        assert plan._slabs.allocated_bytes == plan.arena_for((64, 64)).planned_bytes(3)
        x = _images(1, (32, 32), seed=2)
        assert np.array_equal(plan.run(x), net.forward(x))
        gc.collect()
        assert old_pad() is None

    def test_smaller_batches_and_geometries_keep_every_bound_trunk(self):
        """Once the set holds the largest geometry and batch, smaller ones
        neither reallocate it nor drop anyone's views."""
        net = _mobilenet(64)
        plan = net.compile()
        plan.run(_images(3, (64, 64)))
        slabs = dict(plan._slabs.slabs)
        big = plan._bound[(3, 3, 64, 64)]
        for n, hw in ((1, (32, 32)), (2, (64, 32)), (3, (64, 64))):
            x = _images(n, hw, seed=n)
            assert np.array_equal(plan.run(x), net.forward(x))
        assert all(plan._slabs.slabs[k] is v for k, v in slabs.items())
        assert list(plan._bound) == [(1, 3, 32, 32), (2, 3, 64, 32), (3, 3, 64, 64)]
        assert plan._bound[(3, 3, 64, 64)] is big
        assert plan._slabs.allocated_bytes == plan.arena_for((64, 64)).planned_bytes(3)

    def test_bound_shapes_are_kept_to_the_limit(self):
        net = _mobilenet()
        plan = net.compile()
        largest = MAX_BOUND_SHAPES + 8
        x = _images(largest, (32, 32))
        ref = net.forward(x)
        # Largest batch first: the slabs never grow again, so every batch
        # size binds on the same slabs and only the LRU bound evicts.
        for n in range(largest, 0, -1):
            out = plan.run(x[:n])
            assert len(plan._bound) <= MAX_BOUND_SHAPES
        assert np.array_equal(out, ref[:1])
        assert list(plan._bound) == [(n, 3, 32, 32)
                                     for n in range(MAX_BOUND_SHAPES, 0, -1)]
        # An evicted shape binds again and stays exact.
        assert (largest, 3, 32, 32) not in plan._bound
        assert np.array_equal(plan.run(x), ref)
        assert next(reversed(plan._bound)) == (largest, 3, 32, 32)

    def test_bound_views_keep_no_layer_alive(self):
        net = _mobilenet()
        plan = net.compile()
        plan.run(_images(1, (32, 32)))
        layer = weakref.ref(plan.layers[0])
        plan.layers = []
        gc.collect()
        assert layer() is None
        assert list(plan._bound) == [(1, 3, 32, 32)]


def test_many_geometries_stay_bounded():
    """Every new input shape binds a trunk; a plan keeps only the most
    recently used shapes, and all of them run in one slab set."""
    net = _mobilenet()
    session = Session(net, input_hw=(32, 32))
    plan = session.plan
    x = _images(1, (32, 32))
    # Warm the reference engine too: it caches its shifted weights.
    assert np.array_equal(session.run(x), net.forward(x))
    geometries = [(hw, hw) for hw in range(33, 96, 2)]
    assert len(geometries) == 32
    # Growing geometries at batch 1, then every geometry again at
    # batches 3..1 in the set grown for the largest: more shapes than
    # the plan keeps, so only the LRU bound evicts.
    feed = ([(1, hw) for hw in geometries]
            + [(n, hw) for hw in geometries[::-1] for n in (3, 2, 1)])
    assert len(set(feed[len(geometries):])) > MAX_BOUND_SHAPES
    largest = 0
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        for i, (n, hw) in enumerate(feed):
            x = _images(n, hw, seed=i)
            assert np.array_equal(session.run(x), net.forward(x)), (n, hw)
            largest = max(largest, plan._slabs.allocated_bytes)
            assert len(plan._bound) <= MAX_BOUND_SHAPES
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - base
        bound = list(plan._bound)
        plan._bound.clear()
        gc.collect()
        views = retained - (tracemalloc.get_traced_memory()[0] - base)
        # The largest trunk: the largest geometry at the largest batch,
        # bound into the grown set (nothing evicted, nothing allocated).
        evicted = (3, 3, *geometries[-1])
        assert evicted not in bound
        before, _ = tracemalloc.get_traced_memory()
        plan.bound(evicted)
        trunk = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert bound == [(n, 3, *hw) for n, hw in feed[-MAX_BOUND_SHAPES:]]
    # What stays is one slab set (the largest geometry's at the largest
    # batch), the last input and the bound trunks' views — not one slab
    # set per bound shape.  The views go with the cache and take at most
    # MAX_BOUND_SHAPES trunks (on this small network a full cache's
    # views outweigh its slab set, so they are bounded apart).
    assert largest == plan.arena_for(geometries[-1]).planned_bytes(3)
    assert retained - views <= 2 * largest, (retained, views, largest)
    assert 0 < views <= MAX_BOUND_SHAPES * trunk, (views, trunk)
    # An evicted shape binds again and stays exact.
    x = _images(3, geometries[-1], seed=99)
    assert np.array_equal(session.run(x), net.forward(x))
