"""The load path: reading the blob file once, compiling from the narrow
weight codes, and unpacking each sub-byte blob once.

The compiler shifts weights into the signed dtype one step wider than
their container (int16 for uint8 codes) and takes every bound there.  An
int64 compile, kept here as the oracle, must give the same plan byte for
byte: backends, dtypes, bounds, split-K chunks, Eq. 5 tiers and every
GEMM-form weight array.
"""

import bisect
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.mixed_precision import search_mixed_precision
from repro.inference import export as export_mod
from repro.inference import packing as packing_mod
from repro.inference.engine import IntegerNetwork
from repro.inference.export import export_network, import_network, validate_export
from repro.inference.kernels import (
    FLOAT32_EXACT_BITS,
    gemm_reduction_length,
    max_abs_accumulator,
    shift_weights,
    shifted_weight_dtype,
)
from repro.inference.packing import container_dtype, unpack_subbyte
from repro.inference.plan import CompiledConvLayer, CompiledLinear, ExecutionPlan
from repro.inference.plan import _compile_requant
from repro.inference.testing import (
    integer_network_from_spec,
    random_conv_layer,
    random_linear_layer,
)
from repro.mcu.device import STM32H7, STM32L4
from repro.models.model_zoo import all_mobilenet_configs, mobilenet_v1_spec
from repro.runtime.artifact import load_artifact, save_artifact

_SPECS = all_mobilenet_configs()
_POLICIES = ("uniform", "STM32H7", "STM32L4")
_DEVICES = {"STM32H7": STM32H7, "STM32L4": STM32L4}


def _zoo_network(spec, policy: str) -> IntegerNetwork:
    """One of the 48 zoo builds: a config at 8 bits, or with the bits the
    memory-driven search picks under a device's budgets."""
    if policy == "uniform":
        return integer_network_from_spec(spec, np.random.default_rng(0))
    device = _DEVICES[policy]
    searched = search_mixed_precision(spec, device.flash_bytes, device.ram_bytes,
                                      strict=False)
    return integer_network_from_spec(spec, np.random.default_rng(0), policy=searched)


# ----------------------------------------------------------------------
# The int64 compile the plan used to run, as the oracle
# ----------------------------------------------------------------------
def _shift_int64(w_codes, z_w, c_out):
    z = np.asarray(z_w, dtype=np.int64).reshape(-1)
    if z.size == 1:
        return np.subtract(w_codes, z[0], dtype=np.int64)
    assert z.size == c_out
    return np.subtract(w_codes, z.reshape((-1,) + (1,) * (w_codes.ndim - 1)),
                       dtype=np.int64)


def _refined_int64(w_shift, z_x, x_bits):
    x_mag = max(int(z_x), 2 ** x_bits - 1 - int(z_x))
    w2 = np.asarray(w_shift, dtype=np.int64).reshape(w_shift.shape[0], -1)
    if w2.size == 0:
        return 0
    return int(np.abs(w2).sum(axis=1, dtype=np.int64).max()) * x_mag


def _split_k_int64(w_shift, z_x, x_bits):
    """The binary search over a full int64 cumulative sum of ``|W'|``."""
    x_mag = max(int(z_x), 2 ** x_bits - 1 - int(z_x))
    limit = -(-(1 << FLOAT32_EXACT_BITS) // x_mag)
    csum = np.abs(w_shift.reshape(w_shift.shape[0], -1), dtype=np.int64)
    np.cumsum(csum, axis=1, out=csum)
    k = csum.shape[1]

    def overflows(k0, k1):
        sums = csum[:, k1 - 1] - csum[:, k0 - 1] if k0 else csum[:, k1 - 1]
        return int(sums.max()) >= limit

    bounds = [0]
    while bounds[-1] < k and len(bounds) <= 4:
        start = bounds[-1]
        bounds.append(start + 1 + bisect.bisect_left(
            range(start + 1, k), True, key=lambda j: overflows(start, j + 1)))
    chunks = list(zip(bounds[:-1], bounds[1:]))
    if bounds[-1] < k or len(chunks) < 2 or any(overflows(*c) for c in chunks):
        return None
    return chunks


def _backend(bound):
    if bound < 2 ** 24:
        return "blas", np.dtype(np.float32)
    if bound < 2 ** 53:
        return "blas", np.dtype(np.float64)
    return "int64", np.dtype(np.int64)


def _oracle_conv(layer) -> dict:
    p = layer.params
    w = p.weights_q
    c_out, kind, in_bits = int(w.shape[0]), layer.kind, int(layer.in_bits)
    w_shift = _shift_int64(w, p.z_w, c_out)
    k = gemm_reduction_length(kind, w.shape)
    bound = min(max_abs_accumulator(k, in_bits, int(p.w_bits)),
                _refined_int64(w_shift, int(p.z_x), in_bits))
    backend, gemm = _backend(bound)
    acc, split = gemm, None
    if (backend == "blas" and gemm == np.float64 and kind == "pw"
            and w.shape[2:] == (1, 1) and layer.stride == 1 and layer.padding == 0):
        split = _split_k_int64(w_shift, int(p.z_x), in_bits)
        if split is not None:
            gemm, acc = np.dtype(np.float32), np.dtype(np.float64)
    w2 = np.ascontiguousarray(w_shift.reshape(c_out, -1).astype(gemm))
    chunks = None if split is None else [w2[:, a:b] for a, b in split]
    if kind == "dw" and backend == "blas":
        w2 = np.ascontiguousarray(w2[:, None, :])
    return {"backend": backend, "gemm_dtype": gemm, "acc_dtype": acc,
            "acc_bound": bound, "split_k": split, "w2": w2, "w2_chunks": chunks,
            "epilogue": _compile_requant(p, bound, layer.name).tier}


def _oracle_linear(layer) -> dict:
    w_shift = _shift_int64(layer.weights_q, layer.z_w, layer.weights_q.shape[0])
    k = gemm_reduction_length("fc", layer.weights_q.shape)
    bound = min(max_abs_accumulator(k, layer.in_bits, layer.w_bits),
                _refined_int64(w_shift, int(layer.z_x), layer.in_bits))
    backend, gemm = _backend(bound)
    return {"backend": backend, "gemm_dtype": gemm, "acc_bound": bound,
            "w_t": np.ascontiguousarray(w_shift.T.astype(gemm))}


def _assert_same_array(got, want, what):
    assert got.dtype == want.dtype, what
    assert got.shape == want.shape, what
    assert got.flags.c_contiguous == want.flags.c_contiguous, what
    assert got.tobytes() == want.tobytes(), what


def _assert_conv_matches(compiled: CompiledConvLayer, want: dict):
    name = compiled.name
    assert compiled.backend == want["backend"], name
    assert np.dtype(compiled.gemm_dtype) == want["gemm_dtype"], name
    assert np.dtype(compiled.acc_dtype) == want["acc_dtype"], name
    assert compiled.acc_bound == want["acc_bound"], name
    assert compiled.split_k == want["split_k"], name
    assert compiled.epilogue == want["epilogue"], name
    _assert_same_array(compiled.w2, want["w2"], f"{name} w2")
    if want["w2_chunks"] is None:
        assert compiled.w2_chunks is None, name
    else:
        assert len(compiled.w2_chunks) == len(want["w2_chunks"]), name
        for got, ref in zip(compiled.w2_chunks, want["w2_chunks"]):
            _assert_same_array(got, ref, f"{name} w2_chunks")
            assert got.base is compiled.w2, f"{name} w2_chunks copy w2"


def _assert_linear_matches(compiled: CompiledLinear, want: dict):
    assert compiled.backend == want["backend"]
    assert np.dtype(compiled.gemm_dtype) == want["gemm_dtype"]
    assert compiled.acc_bound == want["acc_bound"]
    _assert_same_array(compiled.w_t, want["w_t"], "w_t")


@pytest.mark.parametrize("policy", _POLICIES)
@pytest.mark.parametrize("spec", _SPECS, ids=[s.name for s in _SPECS])
def test_zoo_plans_match_the_int64_compile(spec, policy):
    net = _zoo_network(spec, policy)
    plan = ExecutionPlan(net)
    for layer, compiled in zip(net.conv_layers, plan.layers):
        assert layer.params.weights_q.dtype == np.uint8
        _assert_conv_matches(compiled, _oracle_conv(layer))
    _assert_linear_matches(plan.classifier, _oracle_linear(net.classifier))


def test_the_zoo_reaches_split_k_and_sub_byte_weights():
    """The oracle sweep above covers what the narrow compile changed:
    a split-K layer, and 2- and 4-bit weights."""
    net = _zoo_network(mobilenet_v1_spec(224, 1.0), "STM32H7")
    assert {l.params.w_bits for l in net.conv_layers} == {2, 4, 8}
    assert any(l.split_k is not None for l in ExecutionPlan(_zoo_network(
        mobilenet_v1_spec(224, 1.0), "uniform")).layers)


_WIDE_BITS = st.sampled_from([2, 4, 8, 16, 26])


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       kind=st.sampled_from(["conv", "pw", "dw", "fc"]),
       w_bits=_WIDE_BITS,
       in_bits=_WIDE_BITS,
       z_x=st.sampled_from(["zero", "qmax", "random"]),
       per_channel=st.booleans(),
       strategy=st.sampled_from(["icn", "folded", "thr"]))
def test_random_layers_match_the_int64_compile(seed, kind, w_bits, in_bits, z_x,
                                               per_channel, strategy):
    """Random conv, pw, dw and fc layers at 2- to 26-bit weights and
    inputs, with scalar or per-channel ``z_w`` and ``z_x`` at 0 or
    ``qmax``.  Wide pointwise reductions reach the split-K and float64
    tiers, 16-bit weights the int32 shift, and 26-bit ones the int64
    shift and, with wide inputs, the int64 GEMM."""
    rng = np.random.default_rng(seed)
    c_out = int(rng.integers(1, 9))
    c_in = int(rng.choice([1, 3, 16, 300, 1024])) if kind in ("pw", "fc") \
        else int(rng.integers(1, 9))
    qmax = 2 ** in_bits - 1
    zx = {"zero": 0, "qmax": qmax, "random": int(rng.integers(0, qmax + 1))}[z_x]
    if kind == "fc":
        layer = random_linear_layer(rng, c_in, c_out, in_bits=in_bits, w_bits=w_bits,
                                    per_channel=per_channel)
        layer.z_x = zx
        _assert_linear_matches(CompiledLinear(layer), _oracle_linear(layer))
        return
    kernel = 1 if kind == "pw" else int(rng.choice([1, 3]))
    layer = random_conv_layer(rng, kind, c_in, c_out, kernel=kernel,
                              stride=int(rng.choice([1, 2])) if kind != "pw" else 1,
                              padding=kernel // 2, in_bits=in_bits, w_bits=w_bits,
                              per_channel=per_channel, strategy=strategy)
    layer.params.z_x = zx
    try:
        want = _oracle_conv(layer)
    except OverflowError:
        # An Eq. 5 epilogue past int64 is refused by both compiles.
        with pytest.raises(OverflowError):
            CompiledConvLayer(layer)
        return
    _assert_conv_matches(CompiledConvLayer(layer), want)


# ----------------------------------------------------------------------
# The narrow shift
# ----------------------------------------------------------------------
@pytest.mark.parametrize("bits,container,shifted", [
    (2, np.uint8, np.int16), (4, np.uint8, np.int16), (8, np.uint8, np.int16),
    (16, np.uint16, np.int32), (26, np.uint32, np.int64),
])
def test_shift_lands_one_step_wider_than_the_container(bits, container, shifted):
    assert container_dtype(bits) == container
    assert shifted_weight_dtype(container) == shifted
    qmax = 2 ** bits - 1
    w = np.array([[0, qmax], [qmax, 0]], dtype=container)
    for z_w in (0, qmax, np.array([0, qmax])):
        got = shift_weights(w, z_w, 2)
        assert got.dtype == shifted
        assert np.array_equal(got, _shift_int64(w, z_w, 2))


def test_a_zero_point_outside_the_container_shifts_in_int64():
    w = np.array([[0, 255]], dtype=np.uint8)
    got = shift_weights(w, 40000, 1)
    assert got.dtype == np.int64
    assert np.array_equal(got, [[-40000, 255 - 40000]])


def test_the_reference_caches_int64_weights():
    net = _zoo_network(all_mobilenet_configs()[0], "uniform")
    layer = net.conv_layers[0]
    assert layer._shifted_weights().dtype == np.int64
    assert net.classifier._shifted_weights().dtype == np.int64


# ----------------------------------------------------------------------
# Unpacking once
# ----------------------------------------------------------------------
def _unpack_broadcast(packed, bits, count, dtype=None):
    """The uint16 broadcast ``unpack_subbyte`` replaced: the oracle."""
    dtype = container_dtype(bits) if dtype is None else dtype
    per_byte = 8 // bits
    shifts = (np.arange(per_byte) * bits).astype(np.uint8)
    expanded = (packed[:, None].astype(np.uint16) >> shifts) & np.uint16(2 ** bits - 1)
    return expanded.reshape(-1)[:count].astype(dtype)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), bits=st.sampled_from([2, 4]),
       n=st.integers(0, 1031), spare=st.integers(0, 3),
       dtype=st.sampled_from([None, np.int64]))
def test_unpack_matches_the_broadcast_formula(seed, bits, n, spare, dtype):
    """Odd counts, blobs with spare bytes past the last code, and an
    explicit int64 result."""
    packed = np.random.default_rng(seed).integers(
        0, 256, size=-(-n * bits // 8) + spare, dtype=np.uint8)
    got = unpack_subbyte(packed, bits, n, dtype=dtype)
    want = _unpack_broadcast(packed, bits, n, dtype)
    assert got.dtype == want.dtype and got.shape == (n,)
    assert np.array_equal(got, want)


def test_eight_bit_codes_stay_a_view_of_the_packed_buffer():
    packed = np.arange(10, dtype=np.uint8)
    codes = unpack_subbyte(packed, 8, 7)
    assert np.shares_memory(codes, packed)
    assert np.array_equal(codes, packed[:7])


def _sub_byte_export():
    spec = mobilenet_v1_spec(32, 0.25, num_classes=5)
    net = integer_network_from_spec(spec, np.random.default_rng(0), act_bits=4,
                                    w_bits=2)
    return net, export_network(net)


def test_validation_does_not_unpack(monkeypatch):
    net, exported = _sub_byte_export()

    def refuse(*args, **kwargs):
        raise AssertionError("validate_export unpacked a blob")

    monkeypatch.setattr(export_mod, "unpack_subbyte", refuse)
    monkeypatch.setattr(packing_mod, "unpack_subbyte", refuse)
    summary = validate_export(exported)
    assert summary["layers"] == len(net.conv_layers) + 1


def test_import_unpacks_each_blob_once(monkeypatch):
    net, exported = _sub_byte_export()
    calls = []
    real = export_mod.unpack_subbyte

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(export_mod, "unpack_subbyte", counting)
    validate_export(exported)
    back = import_network(exported)
    assert calls == [2] * (len(net.conv_layers) + 1)
    x = np.random.default_rng(1).uniform(0, 1, size=(2, 3, 32, 32))
    assert np.array_equal(back.compile().run(x), net.forward(x))


@pytest.mark.parametrize("declared", ["uint16", "int64", "int8"])
def test_validation_rejects_a_wrong_declared_container(declared):
    _, exported = _sub_byte_export()
    exported["classifier"]["container_dtype"] = declared
    with pytest.raises(ValueError, match="declared container"):
        validate_export(exported)


# ----------------------------------------------------------------------
# Load and compile memory
# ----------------------------------------------------------------------
@lru_cache(maxsize=None)
def _memory_builds():
    return {
        "128_0.5": _zoo_network(mobilenet_v1_spec(128, 0.5), "uniform"),
        "224_1.0": _zoo_network(mobilenet_v1_spec(224, 1.0), "uniform"),
        "STM32H7 224_1.0": _zoo_network(mobilenet_v1_spec(224, 1.0), "STM32H7"),
    }


@pytest.mark.parametrize("build", ["128_0.5", "224_1.0", "STM32H7 224_1.0"])
def test_compiling_peaks_near_what_the_plan_keeps(build):
    """No int64 copy of a weight tensor: the compile's transient peak
    stays within a quarter of the bytes the finished plan retains (an
    int64 compile peaked at 1.6-2.1x)."""
    net = _memory_builds()[build]
    tracemalloc.start()
    try:
        plan = ExecutionPlan(net)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert plan.layers
    assert peak <= 1.25 * retained, (peak, retained)


@pytest.mark.parametrize("build", ["128_0.5", "224_1.0", "STM32H7 224_1.0"])
def test_a_heap_load_holds_the_blob_file_once(build, tmp_path):
    """``load_artifact`` reads ``blobs.bin`` into one buffer that every
    loaded array views, so its peak stays within a quarter of what it
    keeps (a copy of every blob out of the file peaked at 1.75-2.2x)."""
    path = save_artifact(tmp_path / "model.artifact", _memory_builds()[build])
    tracemalloc.start()
    try:
        network, _, _ = load_artifact(path)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert network.conv_layers
    assert peak <= 1.25 * retained, (peak, retained)
