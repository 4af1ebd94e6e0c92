"""Session artifact round trip: bit-exact rehydration across the whole
model zoo and every bit-width mix, plus integrity rejection of corrupted
artifacts."""

import json

import numpy as np
import pytest

from repro.inference.export import export_network, import_network
from repro.inference.plan import ExecutionPlan
from repro.inference.testing import integer_network_from_spec, random_network
from repro.models.model_zoo import all_mobilenet_configs, mobilenet_v1_spec
from repro.runtime import ArtifactError, Session
from repro.runtime.artifact import BLOBS_NAME, MANIFEST_NAME, load_artifact, read_manifest

_CONFIGS = all_mobilenet_configs(num_classes=5)
_SMALL = mobilenet_v1_spec(32, 0.25, num_classes=5)


def _roundtrip(tmp_path, session):
    return Session.load(session.save(tmp_path / "artifact"))


@pytest.mark.parametrize("spec", _CONFIGS, ids=lambda s: s.label)
def test_zoo_config_artifact_round_trip_is_bit_exact(spec, tmp_path):
    """Acceptance sweep: Session.load(save(...)) serves bit-identically
    to the in-memory compiled plan on every model-zoo configuration,
    with no reference to the originating IntegerNetwork."""
    seed = spec.resolution * 100 + int(spec.width_multiplier * 100)
    net = integer_network_from_spec(spec, np.random.default_rng(seed))
    session = Session(net)
    restored = _roundtrip(tmp_path, session)
    assert restored.network is not net
    assert all(
        a.params.weights_q is not b.params.weights_q
        for a, b in zip(restored.network.conv_layers, net.conv_layers)
    )
    x = np.random.default_rng(seed + 1).uniform(0, 1, size=(2, 3, 32, 32))
    assert np.array_equal(session.run(x), restored.run(x))
    assert np.array_equal(net.compile().run(x), restored.run(x))


@pytest.mark.parametrize("act_bits", [2, 4, 8])
@pytest.mark.parametrize("w_bits", [2, 4, 8])
def test_bit_width_mix_round_trip(act_bits, w_bits, tmp_path):
    net = integer_network_from_spec(
        _SMALL, np.random.default_rng(act_bits * 10 + w_bits),
        act_bits=act_bits, w_bits=w_bits,
    )
    session = Session(net)
    restored = _roundtrip(tmp_path, session)
    x = np.random.default_rng(0).uniform(0, 1, size=(2, 3, 32, 32))
    assert np.array_equal(session.run(x), restored.run(x))


@pytest.mark.parametrize("idx,strategy", list(enumerate(["icn", "folded", "thr", "mixed"])))
def test_every_requant_strategy_round_trips(idx, strategy, tmp_path):
    """Random topologies exercising every requantization strategy (and
    per-layer mixes of all three) rehydrate bit-identically."""
    rng = np.random.default_rng(1000 + idx)  # fixed seed: reproducible topology
    net = random_network(rng, resolution=10, max_layers=3, strategy=strategy)
    session = Session(net)
    restored = _roundtrip(tmp_path, session)
    x = np.random.default_rng(1).uniform(0, 1, size=(3, 3, 10, 10))
    assert np.array_equal(session.run(x), restored.run(x))


@pytest.mark.parametrize("input_hw", [(32, 32), (24, 40), None],
                         ids=["square", "non-square", "none"])
def test_input_hw_survives_the_round_trip(tmp_path, input_hw):
    net = integer_network_from_spec(_SMALL, np.random.default_rng(0))
    restored = _roundtrip(tmp_path, Session(net, input_hw=input_hw))
    assert restored.input_hw == input_hw
    manifest = read_manifest(restored.source_artifact)
    expected = None if input_hw is None else list(input_hw)
    assert manifest["session_options"] == {"input_hw": expected}


#: Compile options retired before compilation lost its last one, each set
#: away from its old default: wide int64 codes, no arena, always-stencil
#: depthwise, the a-priori bound, a donor arena sized for 64x64 and no
#: weight check.
_RETIRED_COMPILE_OPTIONS = {"narrow": False, "use_arena": False,
                            "fused_depthwise": True, "refined_bound": False,
                            "max_input_hw": [64, 64], "validate": False}


@pytest.mark.parametrize("backend", ["auto", "int32", "int64", "blas"])
def test_artifact_with_retired_options_loads_as_default(tmp_path, backend):
    """A manifest may carry any ``backend`` an older runtime wrote beside
    the options retired before it.  Each selected answers bit-identical
    to the one plan, so the artifact loads as the default plan, verifies,
    and re-saves without them."""
    from repro.analysis import verify_artifact

    net = integer_network_from_spec(_SMALL, np.random.default_rng(0))
    path = Session(net, input_hw=(32, 32)).save(tmp_path / "old.artifact")
    manifest_path = path / MANIFEST_NAME
    manifest = json.loads(manifest_path.read_text())
    manifest["compile_options"] = {"backend": backend, **_RETIRED_COMPILE_OPTIONS}
    manifest_path.write_text(json.dumps(manifest))

    session = Session.load(path)
    assert session.input_hw == (32, 32)
    assert session.layer_info() == net.compile().layer_info()
    x = np.random.default_rng(1).uniform(0, 1, size=(2, 3, 32, 32))
    assert np.array_equal(net.forward(x), session.run(x))
    assert verify_artifact(path).ok
    resaved = json.loads(
        (session.save(tmp_path / "new.artifact") / MANIFEST_NAME).read_text()
    )
    assert "compile_options" not in resaved
    session.close()


@pytest.mark.parametrize("mmap", [False, True], ids=["heap", "mmap"])
def test_artifact_with_retired_geometry_and_workers_loads(tmp_path, mmap):
    """An artifact from before compilation lost its options, ``input_hw``
    and ``validate`` became session options alone, and ``workers`` the
    server's alone.  Its compile-side geometry moves to the session and
    every other compile option is ignored (each selected a plan with
    bit-identical answers; forced int32 only added a raise past 2^31),
    as are its per-layer ``gemm_backend`` labels and its session-side
    ``batch_size``, ``validate`` and ``workers``.  Input codes are
    range-checked (compile-side ``validate: false`` skipped that), and
    re-saving drops every retired field."""
    from repro.analysis import verify_artifact

    net = integer_network_from_spec(_SMALL, np.random.default_rng(0))
    path = Session(net).save(tmp_path / "old.artifact")
    manifest_path = path / MANIFEST_NAME
    manifest = json.loads(manifest_path.read_text())
    assert "arena" not in manifest["network"]
    manifest["compile_options"] = {"backend": "int32", "validate": False,
                                   "input_hw": [32, 32], "narrow": True}
    manifest["session_options"] = {"batch_size": 3, "validate": None, "workers": 4}
    for entry in manifest["network"]["conv_layers"] + [manifest["network"]["classifier"]]:
        entry["gemm_backend"] = "blas"
    manifest_path.write_text(json.dumps(manifest))

    session = Session.load(path, mmap=mmap)
    assert session.input_hw == (32, 32)
    assert session.layer_info() == net.compile().layer_info()
    x = np.random.default_rng(1).uniform(0, 1, size=(2, 3, 32, 32))
    assert np.array_equal(net.forward(x), session.run(x))
    assert verify_artifact(path).ok
    health = session.healthcheck()
    assert health["ok"], health
    assert health["output_shape"] == [1, 5]
    with pytest.raises(ValueError, match="out of UINT8 range"):
        session.run_codes(np.full((1, 3, 32, 32), 300, dtype=np.int64))
    resaved = json.loads(
        (session.save(tmp_path / "new.artifact") / MANIFEST_NAME).read_text()
    )
    assert "compile_options" not in resaved
    assert not any("gemm_backend" in e for e in resaved["network"]["conv_layers"])
    assert "gemm_backend" not in resaved["network"]["classifier"]
    assert resaved["session_options"] == {"input_hw": [32, 32]}
    assert resaved["network"]["arena"]["input_hw"] == [32, 32]
    session.close()


@pytest.mark.parametrize("retired", [{"batch_size": 64}, {"validate": False},
                                     {"validate": None}, {"workers": 4}],
                         ids=["batch_size", "validate-false", "validate-null",
                              "workers"])
def test_retired_session_keys_load(tmp_path, retired):
    """The session-side default tile, boundary-check switch and pool
    width older runtimes saved are ignored: the session keeps its
    geometry and still range-checks codes, and re-saving writes only
    the geometry."""
    net = integer_network_from_spec(_SMALL, np.random.default_rng(0))
    path = Session(net, input_hw=(32, 32)).save(tmp_path / "old.artifact")
    manifest_path = path / MANIFEST_NAME
    manifest = json.loads(manifest_path.read_text())
    manifest["session_options"].update(retired)
    manifest_path.write_text(json.dumps(manifest))

    with Session.load(path) as session:
        assert session.input_hw == (32, 32)
        with pytest.raises(ValueError, match="out of UINT8 range"):
            session.run_codes(np.full((1, 3, 32, 32), 300, dtype=np.int64))
        resaved = json.loads(
            (session.save(tmp_path / "new.artifact") / MANIFEST_NAME).read_text()
        )
    assert resaved["session_options"] == {"input_hw": [32, 32]}


def test_export_import_round_trip_in_memory():
    """The dict-level inverse pair underneath the artifact."""
    net = integer_network_from_spec(_SMALL, np.random.default_rng(2))
    back = import_network(export_network(net))
    x = np.random.default_rng(3).uniform(0, 1, size=(2, 3, 32, 32))
    assert np.array_equal(net.forward(x), back.forward(x))


def test_manifest_carries_arena_plan(tmp_path):
    net = integer_network_from_spec(_SMALL, np.random.default_rng(0))
    session = Session(net, input_hw=(32, 32))
    path = session.save(tmp_path / "artifact")
    manifest = json.loads((path / MANIFEST_NAME).read_text())
    arena = manifest["network"]["arena"]
    assert arena["input_hw"] == [32, 32]
    assert arena["rw_peak_bytes"] == \
        session.plan.arena_for((32, 32)).logical_rw_peak_bytes


def test_save_compiles_nothing(tmp_path, monkeypatch):
    """Saving reads the arena section from the plan the session holds;
    a bare export still compiles its own."""
    net = integer_network_from_spec(_SMALL, np.random.default_rng(0))
    session = Session(net, input_hw=(32, 32))
    compiled = []
    original = ExecutionPlan.__init__

    def counting_init(plan, network):
        compiled.append(network)
        original(plan, network)

    monkeypatch.setattr(ExecutionPlan, "__init__", counting_init)
    path = session.save(tmp_path / "artifact")
    assert compiled == []
    manifest = json.loads((path / MANIFEST_NAME).read_text())
    assert manifest["network"]["arena"] == export_network(net, (32, 32))["arena"]
    assert compiled == [net]


class TestCorruption:
    @pytest.fixture
    def saved(self, tmp_path):
        net = integer_network_from_spec(_SMALL, np.random.default_rng(5))
        return Session(net).save(tmp_path / "artifact")

    def test_corrupted_blob_rejected_by_crc(self, saved):
        blob_path = saved / BLOBS_NAME
        raw = bytearray(blob_path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF  # flip one byte mid-stream
        blob_path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="CRC32"):
            Session.load(saved)

    def test_truncated_blob_file_rejected(self, saved):
        blob_path = saved / BLOBS_NAME
        blob_path.write_bytes(blob_path.read_bytes()[:-10])
        with pytest.raises(ValueError, match="truncated|CRC32"):
            Session.load(saved)

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            Session.load(tmp_path / "nothing-here")

    def test_wrong_format_marker_rejected(self, saved):
        manifest = json.loads((saved / MANIFEST_NAME).read_text())
        manifest["format"] = "somebody-elses-format"
        (saved / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="format"):
            Session.load(saved)

    def test_newer_version_rejected(self, saved):
        manifest = json.loads((saved / MANIFEST_NAME).read_text())
        manifest["version"] = 999
        (saved / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="version"):
            Session.load(saved)

    @pytest.mark.parametrize("section", ["session_options", "compile_options"])
    @pytest.mark.parametrize("value", [[1, 2], "int64"], ids=["list", "string"])
    def test_options_section_that_is_not_an_object_rejected(self, saved, section,
                                                              value):
        """Readers look keys up in both sections, so a section of another
        JSON type is corruption: the typed error, from the loader and
        from the manifest probe the fleet registry uses."""
        manifest = json.loads((saved / MANIFEST_NAME).read_text())
        manifest[section] = value
        (saved / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(ArtifactError, match=f"'{section}' is not a JSON object"):
            Session.load(saved)
        with pytest.raises(ArtifactError, match=f"'{section}' is not a JSON object"):
            read_manifest(saved)

    def test_unknown_session_option_rejected(self, saved):
        manifest = json.loads((saved / MANIFEST_NAME).read_text())
        manifest["session_options"]["batchsize"] = 2
        (saved / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(ArtifactError, match=r"unknown session option\(s\) \['batchsize'\]"):
            Session.load(saved)

    @pytest.mark.parametrize("section", ["session_options", "compile_options"])
    @pytest.mark.parametrize("value", [[0, 32], 32, [32, 32, 3]],
                             ids=["zero", "scalar", "triple"])
    def test_bad_input_hw_rejected(self, saved, section, value):
        manifest = json.loads((saved / MANIFEST_NAME).read_text())
        manifest[section] = {"input_hw": value}
        (saved / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(ArtifactError, match="input_hw"):
            Session.load(saved)

    def test_load_artifact_returns_manifest(self, saved):
        network, input_hw, manifest = load_artifact(saved)
        assert manifest["format"] == "repro/session-artifact"
        assert network.conv_layers and input_hw is None
