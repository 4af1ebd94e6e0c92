"""CompileOptions / SessionOptions: validation, normalisation, round trip."""

import dataclasses

import pytest

from repro.runtime import CompileOptions, SessionOptions


class TestCompileOptions:
    def test_defaults_are_the_production_pipeline(self):
        o = CompileOptions()
        assert o.backend == "auto"
        assert [f.name for f in dataclasses.fields(o)] == ["backend"]

    def test_frozen(self):
        with pytest.raises(AttributeError):
            CompileOptions().backend = "int64"

    def test_hashable_and_equal_by_value(self):
        assert CompileOptions(backend="int32") == CompileOptions(backend="int32")
        assert len({CompileOptions(), CompileOptions()}) == 1

    @pytest.mark.parametrize("bad", [{"backend": "sgemm"},
                                     {"backend": "blas"}])
    def test_invalid_values_rejected(self, bad):
        with pytest.raises(ValueError):
            CompileOptions(**bad)

    @pytest.mark.parametrize("retired", [{"validate": False}, {"input_hw": (32, 32)}])
    def test_retired_fields_rejected(self, retired):
        with pytest.raises(TypeError):
            CompileOptions(**retired)

    def test_from_dict_rejects_unknown_names(self):
        with pytest.raises(TypeError, match="valid options"):
            CompileOptions.from_dict({"narow": True})

    def test_retired_options_read_as_the_default_plan(self):
        o = CompileOptions.from_dict({"backend": "int64", "validate": False,
                                      "input_hw": [32, 32], "max_input_hw": [64, 64]})
        assert o == CompileOptions(backend="int64")
        assert o.to_dict() == {"backend": "int64"}

    def test_replace(self):
        o = CompileOptions().replace(backend="int64")
        assert o.backend == "int64"

    def test_dict_round_trip(self):
        o = CompileOptions(backend="int32")
        assert CompileOptions.from_dict(o.to_dict()) == o


class TestSessionOptions:
    def test_defaults(self):
        o = SessionOptions()
        assert o.batch_size == 32 and o.validate is True and o.input_hw is None
        assert [f.name for f in dataclasses.fields(o)] == [
            "batch_size", "validate", "input_hw"
        ]

    def test_input_hw_normalised_to_int_tuple(self):
        o = SessionOptions(input_hw=[64.0, 32])
        assert o.input_hw == (64, 32)
        assert all(isinstance(d, int) for d in o.input_hw)

    @pytest.mark.parametrize("bad", [{"input_hw": (0, 4)},
                                     {"input_hw": 32},
                                     {"validate": None}])
    def test_invalid_values_rejected(self, bad):
        with pytest.raises(ValueError):
            SessionOptions(**bad)

    def test_old_manifest_fields_load(self):
        """``workers`` (pool width, now the server's alone) is dropped and
        ``validate: null`` reads as on."""
        o = SessionOptions.from_dict({"batch_size": 3, "validate": None, "workers": 4})
        assert o == SessionOptions(batch_size=3)
        assert "workers" not in o.to_dict()

    def test_batch_size_must_be_positive(self):
        with pytest.raises(ValueError):
            SessionOptions(batch_size=0)

    def test_dict_round_trip(self):
        o = SessionOptions(batch_size=4, validate=False, input_hw=(16, 16))
        assert SessionOptions.from_dict(o.to_dict()) == o

    def test_from_dict_rejects_unknown_names(self):
        with pytest.raises(TypeError, match="valid options"):
            SessionOptions.from_dict({"batchsize": 2})
