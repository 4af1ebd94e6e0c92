"""Shape polymorphism: one plan runs every input geometry in one slab set,
bit-exactly.

The contract under test: a plain plan fed any sequence of input
geometries, larger or smaller than the ones before, runs each one in its
single :class:`~repro.inference.arena.SlabSet` and produces outputs
bit-identical to a plan that only ever ran that geometry and to the
interpreted int64 reference (``IntegerNetwork.forward``).  The set grows
to the largest per-image need and batch that has run, and every
geometry's arena keeps its own Eq. 7 accounting.
"""

import numpy as np
import pytest

from repro.analysis import verify_plan
from repro.models.model_zoo import mobilenet_v1_spec
from repro.runtime import pipeline

NATIVE_HW = (64, 64)
#: The native geometry first, then smaller, mixed and larger ones — the
#: stride-32 geometries a MobileNetV1 pyramid accepts around 64x64.
GEOMETRIES = [(64, 64), (32, 32), (32, 64), (64, 32), (96, 96)]


def _zoo_session(resolution, width, *, seed=3):
    spec = mobilenet_v1_spec(resolution, width, num_classes=5)
    return pipeline(spec, seed=seed, input_hw=(resolution, resolution))


@pytest.fixture(scope="module")
def poly_session():
    return _zoo_session(64, 0.25)


class TestBitExactParity:
    @pytest.mark.parametrize("hw", GEOMETRIES)
    def test_every_geometry_matches_native_plan(self, poly_session, hw):
        """A geometry run in a slab set other geometries have grown is
        bit-identical to a plan that only ever ran that geometry."""
        native = _zoo_session(64, 0.25)
        x = np.random.default_rng(11).uniform(0.0, 1.0, (3, 3, *hw))
        np.testing.assert_array_equal(poly_session.run(x), native.run(x))

    @pytest.mark.parametrize("width", [0.25, 0.5])
    def test_parity_across_zoo_slice(self, width):
        """Two zoo widths: one plan runs every geometry at batch 1 and 3,
        each checked against a native plan and the int64 reference, then
        the verifier walks every geometry the plan has run."""
        poly = _zoo_session(64, width, seed=5)
        rng = np.random.default_rng(13)
        for n in (1, 3):
            for hw in GEOMETRIES:
                x = rng.uniform(0.0, 1.0, (n, 3, *hw))
                out = poly.run(x)
                native = _zoo_session(64, width, seed=5)
                np.testing.assert_array_equal(out, native.run(x))
                np.testing.assert_array_equal(out, poly.network.forward(x))
        report = verify_plan(poly.plan)
        assert report.ok
        layers = len(poly.plan.layers)
        assert report.count("slab-aliasing") >= len(GEOMETRIES) * layers

    def test_ragged_run_batched(self, poly_session):
        """Tiled sweeps through the shared slabs stay exact."""
        native = _zoo_session(64, 0.25)
        x = np.random.default_rng(17).uniform(0.0, 1.0, (7, 3, 32, 32))
        np.testing.assert_array_equal(
            poly_session.run_batched(x, batch_size=3),
            native.run_batched(x, batch_size=3),
        )


class TestSlabSharing:
    def test_every_geometry_shares_one_slab_set(self):
        session = _zoo_session(64, 0.25)
        plan = session.plan
        rng = np.random.default_rng(0)
        session.run(rng.uniform(0.0, 1.0, (1, 3, *NATIVE_HW)))
        native_bytes = plan.arena_for(NATIVE_HW).planned_bytes(1)
        assert plan._slabs.allocated_bytes == native_bytes
        for hw in GEOMETRIES[1:-1]:
            session.run(rng.uniform(0.0, 1.0, (1, 3, *hw)))
            assert plan.arena_for(hw)._slabs is plan._slabs
            # A smaller geometry runs in the native set: nothing grows,
            # so no geometry's bound views were dropped.
            assert plan._slabs.allocated_bytes == native_bytes
        assert [s[2:] for s in plan._bound] == GEOMETRIES[:-1]

    def test_child_keeps_its_own_eq7_accounting(self, poly_session):
        """Sharing storage must not change the Eq. 7 peak a geometry
        reports — the paper's accounting is per-geometry."""
        plan = poly_session.plan
        poly_session.run(
            np.random.default_rng(0).uniform(0.0, 1.0, (1, 3, 32, 32))
        )
        child = plan.arena_for((32, 32))
        native = _zoo_session(64, 0.25).plan.arena_for((32, 32))
        assert child.logical_rw_peak_bytes == native.logical_rw_peak_bytes
        assert (child.logical_rw_peak_bytes
                < plan.arena_for(NATIVE_HW).logical_rw_peak_bytes)

    def test_larger_geometry_grows_the_set(self):
        """A geometry above every earlier one grows the set to its own
        planned bytes; nothing caps a plan at its first geometry."""
        session = _zoo_session(64, 0.25)
        plan = session.plan
        rng = np.random.default_rng(1)
        session.run(rng.uniform(0.0, 1.0, (2, 3, *NATIVE_HW)))
        x = rng.uniform(0.0, 1.0, (2, 3, 96, 96))
        np.testing.assert_array_equal(session.run(x), session.network.forward(x))
        assert plan._slabs.allocated_bytes == plan.arena_for((96, 96)).planned_bytes(2)
