"""One input contract, read two ways.

A cold fleet entry knows a model only by its manifest; a loaded session
knows its compiled plan.  Both read an :class:`InputSpec`, and the two
must accept and reject the same batches: otherwise a cold model takes a
batch that the loaded one then fails in the engine.
"""

import dataclasses
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.inference.testing import random_network
from repro.runtime import ArtifactError, InvalidInputError, Session
from repro.runtime.artifact import InputSpec, read_manifest


def _accepts(spec: InputSpec, shape) -> bool:
    try:
        spec.check(np.zeros(shape))
    except InvalidInputError:
        return False
    return True


def _collapses(plan, hw) -> bool:
    try:
        plan.arena_for(hw)
    except ValueError as exc:
        assert "collapses" in str(exc)
        return True
    return False


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       resolution=st.integers(3, 16),
       in_channels=st.sampled_from([1, 3, 4]),
       geometries=st.lists(st.tuples(st.integers(1, 20), st.integers(1, 20)),
                           min_size=1, max_size=12),
       wrong_channels=st.integers(1, 8))
def test_the_manifest_and_the_plan_agree(seed, resolution, in_channels,
                                         geometries, wrong_channels):
    """Over random topologies (unpadded layers included), saved as
    artifacts: the manifest's spec and the loaded plan's spec accept the
    same ``(N, C, H, W)`` shapes once the manifest's ``max_hw`` is set
    aside, and both reject exactly the geometries the plan's arena
    planner finds collapsing."""
    net = random_network(np.random.default_rng(seed), resolution=resolution,
                         in_channels=in_channels, max_layers=5)
    with tempfile.TemporaryDirectory() as tmp:
        path = Session(net, input_hw=(resolution, resolution)).save(
            Path(tmp) / "model.artifact")
        manifest_spec = InputSpec.from_manifest(read_manifest(path))
        with Session.load(path) as session:
            plan, plan_spec = session.plan, session.input_spec
            assert manifest_spec.max_hw == (resolution, resolution)
            unbounded = dataclasses.replace(manifest_spec, max_hw=None)
            assert unbounded == plan_spec
            c = plan_spec.channels
            for h, w in geometries:
                accepted = _accepts(plan_spec, (2, c, h, w))
                assert _accepts(unbounded, (2, c, h, w)) == accepted
                assert accepted != _collapses(plan, (h, w))
                within = h <= resolution and w <= resolution
                assert _accepts(manifest_spec, (2, c, h, w)) == (accepted and within)
                if wrong_channels != c:
                    shape = (2, wrong_channels, h, w)
                    assert not _accepts(plan_spec, shape)
                    assert not _accepts(manifest_spec, shape)


_SPEC = InputSpec(3, (("c0", 3, 3, 1, 0),), max_hw=(8, 8))


@pytest.mark.parametrize("shape,why", [
    ((1, 3, 2, 8), "collapses below 1x1 at layer 'c0'"),
    ((1, 3, 9, 8), "max geometry 8x8"),
    ((1, 4, 8, 8), "4 channel"),
    ((3, 8, 8), "NCHW"),
], ids=["collapse", "max-hw", "channels", "rank"])
def test_a_spec_rejects_what_it_records(shape, why):
    assert _accepts(_SPEC, (1, 3, 3, 8))
    with pytest.raises(InvalidInputError, match=why):
        _SPEC.check(np.zeros(shape))


def test_an_unreadable_layer_entry_is_an_artifact_error(tmp_path):
    """A fleet reads every conv layer entry of a manifest when it scans
    it; one it cannot read is a corrupt artifact, not a raw KeyError."""
    from repro.serving import ModelRegistry

    net = random_network(np.random.default_rng(0), max_layers=4)
    path = Session(net).save(tmp_path / "model.artifact")
    manifest = json.loads((path / "manifest.json").read_text())
    del manifest["network"]["conv_layers"][-1]["stride"]
    (path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ArtifactError, match="conv_layers"):
        ModelRegistry.from_directory(tmp_path)
