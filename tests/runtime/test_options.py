"""SessionOptions: validation, normalisation, round trip."""

import dataclasses

import pytest

from repro.runtime import SessionOptions


class TestSessionOptions:
    def test_defaults(self):
        o = SessionOptions()
        assert o.batch_size == 32 and o.validate is True and o.input_hw is None
        assert [f.name for f in dataclasses.fields(o)] == [
            "batch_size", "validate", "input_hw"
        ]

    def test_frozen(self):
        with pytest.raises(AttributeError):
            SessionOptions().batch_size = 4

    def test_hashable_and_equal_by_value(self):
        assert SessionOptions(input_hw=[16, 8]) == SessionOptions(input_hw=(16, 8))
        assert len({SessionOptions(), SessionOptions(batch_size=32)}) == 1

    def test_replace(self):
        """A replaced copy is validated and normalised like a new one."""
        o = SessionOptions().replace(batch_size="4", input_hw=[8.0, 8])
        assert o == SessionOptions(batch_size=4, input_hw=(8, 8))
        with pytest.raises(ValueError):
            o.replace(batch_size=0)

    @pytest.mark.parametrize("retired", [{"workers": 4}, {"backend": "auto"}],
                             ids=["workers", "backend"])
    def test_retired_fields_rejected(self, retired):
        """Pool width is the server's and compilation takes no options:
        neither is a session option (only an old manifest's ``workers``
        is dropped, by :meth:`SessionOptions.from_dict`)."""
        with pytest.raises(TypeError):
            SessionOptions(**retired)

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
