"""Integer network executor and deployment export."""

import numpy as np
import pytest

from repro.core.graph_convert import convert_to_integer_network
from repro.core.memory_model import MemoryModel
from repro.core.policy import QuantMethod, QuantPolicy
from repro.inference.engine import IntegerAvgPool, IntegerNetwork
from repro.inference.export import deployment_size_bytes, export_network
from repro.inference.packing import packed_size_bytes


@pytest.fixture(scope="module")
def integer_net(qat_pc_icn_model):
    return convert_to_integer_network(
        qat_pc_icn_model, method=QuantMethod.PC_ICN, input_scale=1.0 / 255.0
    )


class TestIntegerNetwork:
    def test_quantize_input_range(self, integer_net, rng):
        x = rng.uniform(0, 1, size=(2, 3, 16, 16))
        codes = integer_net.quantize_input(x)
        assert codes.min() >= 0 and codes.max() <= 255

    def test_forward_produces_logits(self, integer_net, small_dataset):
        logits = integer_net.forward(small_dataset.x_test[:4])
        assert logits.shape == (4, small_dataset.num_classes)
        assert np.isfinite(logits).all()

    def test_predict_labels_in_range(self, integer_net, small_dataset):
        preds = integer_net.predict(small_dataset.x_test[:8])
        assert preds.shape == (8,)
        assert preds.min() >= 0 and preds.max() < small_dataset.num_classes

    def test_intermediate_codes_within_bits(self, integer_net, small_dataset):
        codes = integer_net.quantize_input(small_dataset.x_test[:2])
        for layer in integer_net.conv_layers:
            codes = layer.forward(codes)
            assert codes.min() >= 0
            assert codes.max() <= 2 ** layer.out_bits - 1

    def test_pool_reduces_spatial_dims(self, integer_net, small_dataset):
        codes = integer_net.quantize_input(small_dataset.x_test[:2])
        codes = integer_net.forward_codes(codes)
        pooled = IntegerAvgPool().forward(codes)
        assert pooled.ndim == 2

    def test_weight_storage_accounts_for_packing(self, integer_net):
        total = integer_net.weight_storage_bytes()
        expected = sum(
            packed_size_bytes(int(l.params.weights_q.size), l.params.w_bits)
            for l in integer_net.conv_layers
        ) + packed_size_bytes(
            int(integer_net.classifier.weights_q.size), integer_net.classifier.w_bits
        )
        assert total == expected

    def test_empty_network_forward_is_identity_codes(self, rng):
        net = IntegerNetwork(conv_layers=[], pool=None, classifier=None)
        x = rng.uniform(0, 1, size=(1, 3, 4, 4))
        out = net.forward(x)
        assert out.shape == (1, 3, 4, 4)


class TestExport:
    def test_export_structure(self, integer_net):
        exported = export_network(integer_net)
        assert len(exported["conv_layers"]) == len(integer_net.conv_layers)
        assert "classifier" in exported and "input" in exported
        for entry in exported["conv_layers"]:
            assert entry["weight_bytes"] == packed_size_bytes(
                int(np.prod(entry["weight_shape"])), entry["w_bits"]
            )
            assert entry["strategy"] == "ICNParams"

    def test_deployment_size_breakdown(self, integer_net):
        sizes = deployment_size_bytes(integer_net)
        assert sizes["total"] == sizes["weights"] + sizes["aux_params"]
        assert sizes["weights"] > 0 and sizes["aux_params"] > 0

    def test_deployment_size_close_to_memory_model(self, qat_pc_icn_model, integer_net):
        """The exported Flash size matches the analytical Table-1 model for
        the convolutional trunk (the memory model counts the classifier's
        Table-1 parameters slightly differently from the float bias the
        export ships, so compare within a small tolerance)."""
        spec = qat_pc_icn_model.spec
        policy = QuantPolicy.uniform(spec, method=QuantMethod.PC_ICN, bits=8)
        analytic = MemoryModel(spec).ro_bytes(policy)
        exported = deployment_size_bytes(integer_net)["total"]
        assert abs(exported - analytic) / analytic < 0.1

    def test_packed_weights_roundtrip(self, integer_net):
        exported = export_network(integer_net)
        from repro.inference.packing import unpack_subbyte

        entry = exported["conv_layers"][0]
        layer = integer_net.conv_layers[0]
        back = unpack_subbyte(
            entry["weights_packed"], entry["w_bits"], int(np.prod(entry["weight_shape"]))
        ).reshape(entry["weight_shape"])
        assert np.array_equal(back, layer.params.weights_q)


class TestWeightShiftCaching:
    """The interpreted reference path must shift each weight tensor once,
    not on every forward (regression for the per-call re-shift)."""

    @pytest.fixture()
    def counted_net(self, monkeypatch):
        from repro.inference import testing as t
        import repro.inference.engine as eng

        net = t.random_network(np.random.default_rng(21), resolution=10)
        calls = []
        real = eng.shift_weights

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(eng, "shift_weights", counting)
        return net, calls

    def test_forward_shifts_each_weight_tensor_exactly_once(self, counted_net):
        net, calls = counted_net
        x = np.random.default_rng(22).uniform(0, 1, size=(2, 3, 10, 10))
        ref = net.forward(x)
        shifts_after_first = len(calls)
        # One shift per conv layer plus one for the classifier; repeat
        # forwards must not add any.
        assert shifts_after_first == len(net.conv_layers) + 1
        assert np.array_equal(net.forward(x), ref)
        assert np.array_equal(net.forward(x), ref)
        assert len(calls) == shifts_after_first

    def test_replacing_weight_tensor_invalidates_cache(self, counted_net):
        net, calls = counted_net
        x = np.random.default_rng(23).uniform(0, 1, size=(1, 3, 10, 10))
        net.forward(x)
        baseline = len(calls)
        layer = net.conv_layers[0]
        layer.params.weights_q = layer.params.weights_q.copy()
        net.forward(x)
        assert len(calls) == baseline + 1  # only the swapped tensor re-shifts

    def test_cached_path_matches_compiled_plan(self, counted_net):
        net, _ = counted_net
        x = np.random.default_rng(24).uniform(0, 1, size=(2, 3, 10, 10))
        assert np.array_equal(net.forward(x), net.compile().run(x))


class TestExportActivationPlan:
    def test_export_carries_arena_section(self):
        from repro.inference.testing import integer_network_from_spec
        from repro.models.model_zoo import mobilenet_v1_spec

        spec = mobilenet_v1_spec(32, 0.25, num_classes=5)
        net = integer_network_from_spec(spec, np.random.default_rng(0))
        exported = export_network(net, input_hw=(32, 32))
        arena = exported["arena"]
        assert arena["input_hw"] == [32, 32]
        assert arena["rw_peak_bytes"] == max(arena["per_layer_rw_bytes"])
        # The export's plan agrees with the compiled plan's arena.
        plan = net.compile()
        assert arena["rw_peak_bytes"] == plan.arena_for((32, 32)).logical_rw_peak_bytes
        for entry in exported["conv_layers"]:
            act = entry["activations"]
            assert act["rw_bytes"] > 0
            assert len(act["in_shape"]) == len(act["out_shape"]) == 3

    def test_export_without_input_hw_unchanged(self, integer_net):
        exported = export_network(integer_net)
        assert "arena" not in exported
        assert all("activations" not in e for e in exported["conv_layers"])
