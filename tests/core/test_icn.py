"""Integer Channel-Normalization conversion (Eq. 3-5), the thresholds
baseline and the folded-batch-norm baseline."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.icn import (
    M0_FRACTIONAL_BITS,
    FoldedBNParams,
    ICNParams,
    compute_folded_params,
    compute_icn_params,
    compute_thresholds,
    decompose_fixed_point,
    folded_requantize,
    icn_requantize,
    mantissa_to_float,
    quantize_mantissa,
    quantize_multiplier,
    threshold_requantize,
)
from repro.core.quantizer import (
    QuantSpec,
    broadcast_channelwise,
    compute_affine_params,
    per_channel_minmax,
    quantize_affine,
)
from repro.inference.kernels import int_conv2d


# ----------------------------------------------------------------------
# Fixed-point decomposition
# ----------------------------------------------------------------------
class TestFixedPointDecomposition:
    def test_mantissa_range(self, rng):
        m = rng.uniform(-10, 10, size=100)
        m = m[m != 0]
        m0, n0 = decompose_fixed_point(m)
        assert np.all((np.abs(m0) >= 0.5) & (np.abs(m0) < 1.0))

    def test_reconstruction_exact(self, rng):
        m = rng.uniform(1e-6, 10, size=50)
        m0, n0 = decompose_fixed_point(m)
        assert np.allclose(m0 * np.exp2(n0.astype(float)), m)

    def test_zero_maps_to_zero(self):
        m0, n0 = decompose_fixed_point(np.array([0.0, 1.0]))
        assert m0[0] == 0 and n0[0] == 0

    def test_mantissa_quantization_error(self, rng):
        m = rng.uniform(0.5, 1.0, size=100)
        q = quantize_mantissa(m)
        back = mantissa_to_float(q)
        assert np.max(np.abs(back - m)) < 2 ** -30

    def test_quantize_multiplier_no_overflow(self):
        """Values rounding up to |m0| = 1.0 are renormalised."""
        m = np.array([1.0 - 2 ** -40, 0.5, -1.0 + 2 ** -40])
        m0, n0 = quantize_multiplier(m)
        assert np.all(np.abs(m0) <= 2 ** 31 - 1 + 1)  # strictly inside INT32 after renorm
        assert np.all(np.abs(m0) < 2 ** 31)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=1e-8, max_value=1e4, allow_nan=False))
    def test_property_multiplier_roundtrip(self, m):
        m0, n0 = quantize_multiplier(np.array([m]))
        back = mantissa_to_float(m0) * np.exp2(n0.astype(float))
        assert abs(back[0] - m) <= m * 2 ** -29


# ----------------------------------------------------------------------
# Helpers shared by the equivalence tests
# ----------------------------------------------------------------------
def _random_quantized_layer(rng, c_in=4, c_out=6, k=3, n=2, h=8, per_channel=True,
                            out_bits=8, w_bits=8):
    """Random conv/bn/quant-act layer in both float and integer forms."""
    s_in = 1.0 / 63.0
    z_x = 0
    x_codes = rng.integers(0, 2 ** 8, size=(n, c_in, h, h))
    x_real = s_in * (x_codes - z_x)

    w_real = rng.normal(0, 0.4, size=(c_out, c_in, k, k))
    spec_w = QuantSpec(bits=w_bits, per_channel=per_channel)
    if per_channel:
        a, b = per_channel_minmax(w_real, axis=0)
        s_w, z_w = compute_affine_params(a, b, spec_w)
        w_codes = quantize_affine(
            np.clip(w_real, broadcast_channelwise(a, 4), broadcast_channelwise(b, 4)),
            broadcast_channelwise(s_w, 4), broadcast_channelwise(z_w, 4), spec_w,
        )
        w_deq = (w_codes - broadcast_channelwise(z_w, 4)) * broadcast_channelwise(s_w, 4)
    else:
        a, b = float(w_real.min()), float(w_real.max())
        s_w, z_w = compute_affine_params(a, b, spec_w)
        w_codes = quantize_affine(np.clip(w_real, a, b), s_w, z_w, spec_w)
        w_deq = (w_codes - z_w) * s_w
        s_w, z_w = float(s_w), int(z_w)

    gamma = rng.uniform(0.5, 1.5, size=c_out) * rng.choice([1.0, 1.0, 1.0, -1.0], size=c_out)
    beta = rng.normal(0, 0.3, size=c_out)
    mu = rng.normal(0, 0.2, size=c_out)
    sigma = rng.uniform(0.5, 2.0, size=c_out)
    alpha = rng.uniform(2.0, 8.0)
    s_out = alpha / (2 ** out_bits - 1)
    z_y = 0

    return {
        "s_in": s_in, "z_x": z_x, "x_codes": x_codes, "x_real": x_real,
        "w_codes": w_codes, "w_deq": w_deq, "s_w": s_w, "z_w": z_w,
        "gamma": gamma, "beta": beta, "mu": mu, "sigma": sigma,
        "s_out": s_out, "z_y": z_y, "out_bits": out_bits, "w_bits": w_bits,
        "per_channel": per_channel,
    }


def _float_reference_codes(layer):
    """Output codes of the fake-quantized transfer function (Eq. 3)."""
    from repro.nn.functional import conv2d_forward

    phi, _ = conv2d_forward(layer["x_real"], layer["w_deq"], None, 1, 1)
    y = (phi - layer["mu"].reshape(1, -1, 1, 1)) / layer["sigma"].reshape(1, -1, 1, 1)
    y = y * layer["gamma"].reshape(1, -1, 1, 1) + layer["beta"].reshape(1, -1, 1, 1)
    codes = np.floor(y / layer["s_out"]) + layer["z_y"]
    return np.clip(codes, 0, 2 ** layer["out_bits"] - 1).astype(np.int64)


def _icn_from_layer(layer):
    return compute_icn_params(
        layer["w_codes"], layer["s_w"], layer["z_w"], layer["s_in"], layer["z_x"],
        layer["s_out"], layer["z_y"], layer["out_bits"], layer["w_bits"],
        bn_gamma=layer["gamma"], bn_beta=layer["beta"], bn_mean=layer["mu"],
        bn_std=layer["sigma"], per_channel=layer["per_channel"],
    )


# ----------------------------------------------------------------------
# ICN equivalence with the fake-quantized graph
# ----------------------------------------------------------------------
class TestICNEquivalence:
    @pytest.mark.parametrize("per_channel", [True, False])
    @pytest.mark.parametrize("out_bits", [8, 4, 2])
    def test_integer_matches_float_reference(self, rng, per_channel, out_bits):
        """Eq. 5 reproduces Eq. 3 up to the Bq / M0 rounding (<= 1 code)."""
        layer = _random_quantized_layer(rng, per_channel=per_channel, out_bits=out_bits)
        ref = _float_reference_codes(layer)
        icn = _icn_from_layer(layer)
        phi = int_conv2d(layer["x_codes"], layer["w_codes"], layer["z_x"], layer["z_w"],
                         stride=1, padding=1, w_bits=layer["w_bits"])
        out = icn_requantize(phi, icn)
        diff = np.abs(out - ref)
        assert diff.max() <= 1
        assert (diff == 0).mean() > 0.98

    def test_low_bitwidth_weights(self, rng):
        layer = _random_quantized_layer(rng, per_channel=True, out_bits=4, w_bits=4)
        ref = _float_reference_codes(layer)
        icn = _icn_from_layer(layer)
        phi = int_conv2d(layer["x_codes"], layer["w_codes"], layer["z_x"], layer["z_w"],
                         stride=1, padding=1, w_bits=4)
        out = icn_requantize(phi, icn)
        assert np.abs(out - ref).max() <= 1

    def test_output_within_grid(self, rng):
        layer = _random_quantized_layer(rng, out_bits=4)
        icn = _icn_from_layer(layer)
        phi = int_conv2d(layer["x_codes"], layer["w_codes"], layer["z_x"], layer["z_w"],
                         stride=1, padding=1)
        out = icn_requantize(phi, icn)
        assert out.min() >= 0 and out.max() <= 15

    def test_all_integer_dtypes(self, rng):
        layer = _random_quantized_layer(rng)
        icn = _icn_from_layer(layer)
        assert icn.bq.dtype == np.int64
        assert icn.m0.dtype == np.int64
        assert np.all(np.abs(icn.m0) < 2 ** 31)
        assert np.all(np.abs(icn.bq) < 2 ** 31)

    def test_negative_gamma_supported(self, rng):
        """Channels with negative batch-norm gamma flip the multiplier sign."""
        layer = _random_quantized_layer(rng)
        layer["gamma"] = -np.abs(layer["gamma"])
        ref = _float_reference_codes(layer)
        icn = _icn_from_layer(layer)
        phi = int_conv2d(layer["x_codes"], layer["w_codes"], layer["z_x"], layer["z_w"],
                         stride=1, padding=1)
        out = icn_requantize(phi, icn)
        assert np.all(icn.m0 <= 0)
        assert np.abs(out - ref).max() <= 1

    def test_conv_bias_folded_into_bq(self, rng):
        layer = _random_quantized_layer(rng)
        bias = rng.normal(0, 0.5, size=layer["w_codes"].shape[0])
        icn_no_bias = _icn_from_layer(layer)
        icn_bias = compute_icn_params(
            layer["w_codes"], layer["s_w"], layer["z_w"], layer["s_in"], layer["z_x"],
            layer["s_out"], layer["z_y"], layer["out_bits"], layer["w_bits"],
            bn_gamma=layer["gamma"], bn_beta=layer["beta"], bn_mean=layer["mu"],
            bn_std=layer["sigma"], conv_bias=bias, per_channel=layer["per_channel"],
        )
        assert not np.array_equal(icn_no_bias.bq, icn_bias.bq)

    def test_invalid_sigma_rejected(self, rng):
        layer = _random_quantized_layer(rng)
        layer["sigma"][0] = 0.0
        with pytest.raises(ValueError):
            _icn_from_layer(layer)


# ----------------------------------------------------------------------
# Thresholds baseline
# ----------------------------------------------------------------------
def _one_channel_icn(m0, n0, bq, z_y, out_bits):
    return ICNParams(
        weights_q=np.zeros((1, 1, 1, 1), dtype=np.uint8), z_w=np.zeros(1, dtype=np.int64),
        z_x=0, z_y=z_y, bq=np.array([bq], dtype=np.int64),
        m0=np.array([m0], dtype=np.int64), n0=np.array([n0], dtype=np.int64),
        out_bits=out_bits, w_bits=8, per_channel=True,
    )


def _edge_accumulators(icn, thr):
    """``Phi`` at ``-bq +- 2`` and on both sides of every level edge, of
    the tables and of the reference itself, inside the window where the
    int64 reference holds ``m0 * (Phi + bq)`` (shifted left when
    ``n0 > 31``) without overflow."""
    m0, n0, bq = int(icn.m0[0]), int(icn.n0[0]), int(icn.bq[0])
    reach = ((2 ** 63 - 1) >> max(n0 - M0_FRACTIONAL_BITS, 0)) // abs(m0)
    lo0, hi0 = max(-bq - reach, -(2 ** 63)), min(-bq + reach, 2 ** 63 - 1)
    phis = {-bq + d for d in range(-2, 3)}
    for t in thr.thresholds[0, 1:]:
        phis |= {int(t) - 1, int(t), int(t) + 1}
    # The reference's own edges, by bisection: the smallest Phi whose
    # level passes j (whose level falls below j on a decreasing channel).
    levels = np.arange(1, 2 ** icn.out_bits)

    def passed(phi):
        y = icn_requantize(np.array(phi, dtype=np.int64).reshape(1, 1, -1), icn)
        return (y.reshape(-1) >= levels) != (m0 < 0)

    lo, hi = [lo0] * len(levels), [hi0] * len(levels)
    inside = ~passed(lo) & passed(hi)
    while any(h - l > 1 for l, h in zip(lo, hi)):
        mid = [l + (h - l) // 2 for l, h in zip(lo, hi)]
        up = passed(mid)
        lo = [l if u else m for l, m, u in zip(lo, mid, up)]
        hi = [m if u else h for h, m, u in zip(hi, mid, up)]
    for h, ok in zip(hi, inside):
        if ok:
            phis |= {h - 1, h}
    keep = sorted(p for p in phis if lo0 <= p <= hi0)
    return np.array(keep, dtype=np.int64).reshape(1, 1, -1)


class TestThresholds:
    @pytest.mark.parametrize("out_bits", [2, 4, 8])
    def test_threshold_equals_icn(self, rng, out_bits):
        """The thresholds method is an exact reformulation of the ICN layer."""
        layer = _random_quantized_layer(rng, out_bits=out_bits)
        icn = _icn_from_layer(layer)
        thr = compute_thresholds(icn)
        phi = int_conv2d(layer["x_codes"], layer["w_codes"], layer["z_x"], layer["z_w"],
                         stride=1, padding=1)
        assert np.array_equal(threshold_requantize(phi, thr), icn_requantize(phi, icn))

    @pytest.mark.parametrize("m0, n0, bq, z_y, out_bits", [
        # Multipliers >= 1: Eq. 5 shifts left by n0 - 31.
        (2 ** 30, 32, 0, 8, 4),
        (2 ** 30, 33, 0, 8, 4),
        (2 ** 30, 35, 0, 8, 4),
        (-(2 ** 30), 34, 5, 1, 2),
        # A right shift of 71, clamped to MAX_RSHIFT.
        (2 ** 31 - 1, -40, 2 ** 31 - 1, 8, 4),
    ])
    def test_threshold_equals_icn_at_extreme_shifts(self, m0, n0, bq, z_y, out_bits):
        icn = _one_channel_icn(m0, n0, bq, z_y, out_bits)
        thr = compute_thresholds(icn)
        phi = _edge_accumulators(icn, thr)
        assert np.array_equal(threshold_requantize(phi, thr), icn_requantize(phi, icn))

    def test_threshold_equals_icn_random_extreme_shifts(self):
        """Random channels whose shift leaves [0, 31]: left shifts of 1-8
        and right shifts of 63-76, with the reference's accumulators
        around -bq and at every level edge."""
        rng = np.random.default_rng(21)
        for _ in range(400):
            n0 = int(rng.integers(32, 40) if rng.random() < 0.5 else rng.integers(-45, -31))
            m0 = int(rng.integers(2 ** 30, 2 ** 31)) * int(rng.choice([-1, 1]))
            bq = int(rng.integers(-(2 ** 31), 2 ** 31))
            out_bits = int(rng.choice([2, 4, 8]))
            icn = _one_channel_icn(m0, n0, bq, int(rng.integers(0, 2 ** out_bits)), out_bits)
            thr = compute_thresholds(icn)
            phi = _edge_accumulators(icn, thr)
            assert np.array_equal(threshold_requantize(phi, thr), icn_requantize(phi, icn)), \
                (m0, n0, bq, icn.z_y, out_bits)

    def test_threshold_count(self, rng):
        layer = _random_quantized_layer(rng, out_bits=4)
        thr = compute_thresholds(_icn_from_layer(layer))
        c_o = layer["w_codes"].shape[0]
        assert thr.thresholds.shape == (c_o, 16)

    def test_thresholds_monotone_per_channel(self, rng):
        layer = _random_quantized_layer(rng, out_bits=4)
        icn = _icn_from_layer(layer)
        thr = compute_thresholds(icn)
        for c in range(thr.thresholds.shape[0]):
            diffs = np.diff(thr.thresholds[c, 1:])
            if thr.direction[c] > 0:
                assert np.all(diffs >= 0)
            else:
                assert np.all(diffs <= 0)

    def test_negative_gamma_direction(self, rng):
        layer = _random_quantized_layer(rng)
        layer["gamma"] = -np.abs(layer["gamma"])
        thr = compute_thresholds(_icn_from_layer(layer))
        assert np.all(thr.direction == -1)


class TestInt64Window:
    """The reference forms ``m0 * (Phi + Bq)``, shifted left when
    ``n0 > 31``, in int64.  Past its channel's reach
    ``(2^63 - 1 >> lshift) // |m0|`` that product would wrap into wrong
    codes, so Eq. 5 raises instead."""

    @staticmethod
    def _run(icn, phi):
        return icn_requantize(np.array(phi, dtype=np.int64).reshape(1, 1, -1), icn)

    @pytest.mark.parametrize("m0,n0,bq,phi", [
        (2 ** 30, 35, 0, 2 ** 29),  # left shift 4: reach 2^29 - 1
        (2 ** 30, 35, 0, 2 ** 30),
        (2 ** 30, 35, 0, -(2 ** 29)),
        # Right shift 71, clamped to 62: reach ~2^32 - bq.
        (2 ** 31 - 1, -40, 2 ** 31 - 1, 2 ** 33),
    ])
    def test_past_the_reach_raises(self, m0, n0, bq, phi):
        with pytest.raises(OverflowError, match="overflows int64"):
            self._run(_one_channel_icn(m0, n0, bq, 8, 4), [phi])

    def test_at_the_reach_is_exact(self):
        icn = _one_channel_icn(2 ** 30, 35, 0, 8, 4)
        reach = 2 ** 29 - 1
        assert self._run(icn, [2 ** 20, reach, -reach]).ravel().tolist() == [15, 15, 0]

    def test_folded_requantize_shares_the_check(self):
        folded = FoldedBNParams(
            weights_q=np.zeros((1, 1, 1, 1), dtype=np.uint8), z_w=0, z_x=0, z_y=8,
            bq=np.zeros(1, dtype=np.int64), m0=2 ** 30, n0=35, out_bits=4, w_bits=8,
        )
        phi = np.array([2 ** 29 - 1, 2 ** 29], dtype=np.int64).reshape(1, 1, -1)
        assert folded_requantize(phi[:, :, :1], folded).ravel().tolist() == [15]
        with pytest.raises(OverflowError):
            folded_requantize(phi, folded)

    def test_zero_mantissa_never_overflows(self):
        icn = _one_channel_icn(0, 40, 0, 3, 4)
        assert self._run(icn, [2 ** 62]).ravel().tolist() == [3]


# ----------------------------------------------------------------------
# Folded batch-norm baseline
# ----------------------------------------------------------------------
class TestFoldedBN:
    def test_folded_matches_float_reference(self, rng):
        """PL+FB with 8-bit weights reproduces the float transfer function."""
        from repro.nn.functional import conv2d_forward

        layer = _random_quantized_layer(rng, per_channel=False, out_bits=8, w_bits=8)
        # Fold gamma/sigma into the real weights, then re-quantize per layer.
        scale = layer["gamma"] / layer["sigma"]
        shift = layer["beta"] - layer["gamma"] * layer["mu"] / layer["sigma"]
        w_folded = layer["w_deq"] * scale.reshape(-1, 1, 1, 1)
        spec_w = QuantSpec(bits=8)
        a, b = float(w_folded.min()), float(w_folded.max())
        s_w, z_w = compute_affine_params(a, b, spec_w)
        w_codes = quantize_affine(np.clip(w_folded, a, b), s_w, z_w, spec_w)
        w_deq = (w_codes - z_w) * s_w

        params = compute_folded_params(
            w_codes, float(s_w), int(z_w), layer["s_in"], layer["z_x"],
            layer["s_out"], layer["z_y"], 8, 8, folded_bias=shift,
        )
        phi = int_conv2d(layer["x_codes"], w_codes, layer["z_x"], int(z_w), stride=1, padding=1)
        out = folded_requantize(phi, params)

        ref_float, _ = conv2d_forward(layer["x_real"], w_deq, None, 1, 1)
        ref_float = ref_float + shift.reshape(1, -1, 1, 1)
        ref = np.clip(np.floor(ref_float / layer["s_out"]), 0, 255).astype(np.int64)
        assert np.abs(out - ref).max() <= 1
        assert (out == ref).mean() > 0.98

    def test_folded_params_scalar_multiplier(self, rng):
        layer = _random_quantized_layer(rng, per_channel=False)
        params = compute_folded_params(
            layer["w_codes"], layer["s_w"], layer["z_w"], layer["s_in"], layer["z_x"],
            layer["s_out"], layer["z_y"], 8, 8,
            folded_bias=np.zeros(layer["w_codes"].shape[0]),
        )
        assert isinstance(params.m0, int) and isinstance(params.n0, int)
