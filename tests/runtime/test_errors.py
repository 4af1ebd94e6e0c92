"""Typed runtime errors: atomic save semantics, ``ArtifactError`` on
partial/missing artifacts, ``InvalidInputError`` at the Session front
door."""

import json
import os

import numpy as np
import pytest

from repro.inference.testing import integer_network_from_spec
from repro.models.model_zoo import mobilenet_v1_spec
from repro.runtime import (
    ArtifactError,
    ArtifactNotFoundError,
    InvalidInputError,
    Session,
)
from repro.runtime.artifact import BLOBS_NAME, MANIFEST_NAME

_SMALL = mobilenet_v1_spec(32, 0.25, num_classes=5)


@pytest.fixture(scope="module")
def session():
    net = integer_network_from_spec(_SMALL, np.random.default_rng(7))
    return Session(net, input_hw=(32, 32))


@pytest.fixture
def saved(session, tmp_path):
    return session.save(tmp_path / "artifact")


class TestAtomicSave:
    def test_save_overwrites_existing_artifact_in_place(self, session, tmp_path):
        path = session.save(tmp_path / "artifact")
        before = (path / MANIFEST_NAME).read_bytes()
        again = session.save(tmp_path / "artifact")
        assert again == path
        assert (path / MANIFEST_NAME).read_bytes() == before
        Session.load(path)  # still a complete, loadable artifact

    def test_save_leaves_no_staging_droppings(self, session, tmp_path):
        session.save(tmp_path / "artifact")
        session.save(tmp_path / "artifact")  # overwrite path too
        assert sorted(os.listdir(tmp_path)) == ["artifact"]
        assert sorted(os.listdir(tmp_path / "artifact")) == [BLOBS_NAME,
                                                             MANIFEST_NAME]

    def test_save_refuses_to_clobber_a_non_artifact_directory(
            self, session, tmp_path):
        victim = tmp_path / "precious"
        victim.mkdir()
        (victim / "data.txt").write_text("do not delete")
        with pytest.raises(ArtifactError, match="not a session artifact"):
            session.save(victim)
        assert (victim / "data.txt").read_text() == "do not delete"

    def test_failed_save_leaves_previous_artifact_intact(
            self, session, saved, monkeypatch):
        """If staging blows up mid-write, the existing artifact on disk
        must remain loadable — the swap never happened."""
        import repro.runtime.artifact as artifact_mod

        def boom(path, data):
            raise OSError("disk full")

        monkeypatch.setattr(artifact_mod, "_write_synced", boom)
        with pytest.raises(OSError):
            session.save(saved)
        Session.load(saved)
        assert not [p for p in saved.parent.iterdir() if p.name != saved.name]


class TestArtifactErrors:
    def test_missing_artifact_is_typed_and_a_file_not_found(self, tmp_path):
        missing = tmp_path / "nope"
        with pytest.raises(ArtifactNotFoundError):
            Session.load(missing)
        with pytest.raises(FileNotFoundError):   # stdlib contract kept
            Session.load(missing)
        with pytest.raises(ArtifactError):        # umbrella type
            Session.load(missing)

    def test_partial_artifact_missing_blobs(self, saved):
        (saved / BLOBS_NAME).unlink()
        with pytest.raises(ArtifactError, match="missing"):
            Session.load(saved)

    def test_partial_artifact_missing_manifest(self, saved):
        (saved / MANIFEST_NAME).unlink()
        with pytest.raises(ArtifactNotFoundError):
            Session.load(saved)

    def test_unparseable_manifest(self, saved):
        (saved / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(ArtifactError, match="manifest"):
            Session.load(saved)

    def test_structurally_broken_manifest(self, saved):
        manifest = json.loads((saved / MANIFEST_NAME).read_text())
        del manifest["network"]
        (saved / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(ArtifactError, match="corrupt artifact"):
            Session.load(saved)

    def test_flipped_blob_byte_is_an_artifact_error(self, saved):
        raw = bytearray((saved / BLOBS_NAME).read_bytes())
        raw[len(raw) // 2] ^= 0x01
        (saved / BLOBS_NAME).write_bytes(bytes(raw))
        with pytest.raises(ArtifactError, match="CRC32"):
            Session.load(saved)


class TestInputValidation:
    def ok(self):
        return np.zeros((2, 3, 32, 32))

    def test_valid_input_passes(self, session):
        session.validate_input(self.ok())

    @pytest.mark.parametrize("bad,why", [
        ("not an array", "numeric"),
        (np.zeros((3, 32, 32)), "NCHW"),               # missing batch dim
        (np.zeros((2, 3, 32)), "NCHW"),
        (np.zeros((2, 5, 32, 32)), "channel"),         # wrong channel count
        (np.zeros((2, 3, 32, 32), dtype=complex), "dtype"),
        (np.array([[["a"]]]), "dtype"),
    ], ids=["non-array", "rank3", "rank3b", "channels", "complex", "strings"])
    def test_rejections_are_typed(self, session, bad, why):
        with pytest.raises(InvalidInputError, match=why):
            session.validate_input(bad)

    def test_non_finite_values_rejected(self, session):
        x = self.ok()
        x[0, 0, 0, 0] = np.nan
        with pytest.raises(InvalidInputError, match="finite"):
            session.validate_input(x)
        x[0, 0, 0, 0] = np.inf
        with pytest.raises(InvalidInputError, match="finite"):
            session.validate_input(x)

    def test_geometry_too_small_for_network(self):
        # A topology with an unpadded layer: a 1x1 input collapses.
        from repro.inference.testing import random_network
        net = random_network(np.random.default_rng(0), resolution=12,
                             max_layers=4)
        with pytest.raises(InvalidInputError, match="collapses"):
            Session(net).validate_input(np.zeros((1, 3, 1, 1)))

    def test_run_validates_before_compute(self, session):
        with pytest.raises(InvalidInputError):
            session.run(np.zeros((1, 3, 32)))

    def test_run_batched_validates_before_compute(self, session):
        with pytest.raises(InvalidInputError):
            session.run_batched(np.full((1, 3, 32, 32), np.nan))

    def test_invalid_input_error_is_a_value_error(self):
        assert issubclass(InvalidInputError, ValueError)

    def test_healthcheck_reports_ok(self, session):
        report = session.healthcheck()
        assert report["ok"] is True
        assert report["latency_ms"] >= 0.0
        assert report["output_shape"] == [1, 5]
