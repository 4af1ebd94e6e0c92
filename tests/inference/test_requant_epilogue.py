"""Property tests of the compiled Eq. 5 epilogue against repro.core.icn.

The compiled requantizer folds Eq. 5 into per-channel constants and runs
it on one of two tiers: float64 (``Phi * M' + C'``, exact while
``acc_bound * |M| + |C| < 2^53``) or int64 (``((Phi * M + B) >> rshift)
+ z_y``).  Both must equal ``icn_requantize`` / ``folded_requantize``
bit for bit, for every accumulator dtype the plan produces, on the
parameter corners: scalar and per-channel, negative multipliers, left
shifts (``n0 > 31``), ``rshift`` at 0 and at the 62 clamp, ``z_y`` at 0
and ``qmax``, sub-byte outputs, and ``|Phi|`` at an accumulator bound on
either side of the float64 tier edge.  The compiler picks the float64
tier only with a ``2^11`` margin below that edge; the verifier accepts it
up to the exact edge, so a requantizer moved onto the float64 tier just
below the edge must still be exact.  A float64-tier requantizer moved
onto the int64 tier must be exact too, so the int64 tier is checked on
every drawn case.  The static verifier must accept every requantizer the
compiler emits and prove the same tier.
"""

import copy
from types import SimpleNamespace

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from repro.analysis.verify import VerificationReport, _check_requant
from repro.core.icn import (
    M0_FRACTIONAL_BITS,
    FoldedBNParams,
    ICNParams,
    folded_requantize,
    icn_requantize,
)
from repro.inference.plan import _compile_folded_requant, _compile_icn_requant

F64_EDGE = 1 << 53

#: ``31 - n0``: 0 and 62 are the right-shift extremes, negatives are
#: left shifts (``n0 > 31``), beyond 62 the shift is clamped.
SHIFTS = st.one_of(st.sampled_from([0, 62, -1, -9, 63, 70]), st.integers(-9, 70))
M0 = st.one_of(
    st.integers(1 << 30, (1 << 31) - 1),
    st.integers(-((1 << 31) - 1), -(1 << 30)),
    st.integers(-((1 << 31) - 1), (1 << 31) - 1),
)
BQ = st.one_of(st.sampled_from([0, -1, 1]), st.integers(-(1 << 31), (1 << 31) - 1))


def _folded(bq, m0, shift):
    """Per-channel ``M = m0 << lshift``, ``B``, ``C`` and ``rshift`` in
    Python ints (the same fold the verifier re-derives)."""
    r = min(max(shift, 0), 62)
    ls = max(-shift, 0)
    m = m0 << ls
    b = (bq * m0) << ls
    return m, b, r


@st.composite
def eq5_cases(draw):
    out_bits = draw(st.sampled_from([2, 4, 8]))
    qmax = 2 ** out_bits - 1
    z_y = draw(st.one_of(st.sampled_from([0, qmax]), st.integers(0, qmax)))
    per_channel = draw(st.booleans())
    c = draw(st.integers(1, 5))
    bq = draw(st.lists(BQ, min_size=c, max_size=c))
    if per_channel:
        m0 = draw(st.lists(M0, min_size=c, max_size=c))
        shift = draw(st.lists(SHIFTS, min_size=c, max_size=c))
    else:
        m0 = [draw(M0)] * c
        shift = [draw(SHIFTS)] * c
    chans = [_folded(bq[i], m0[i], shift[i]) for i in range(c)]
    mode = draw(st.sampled_from(["below-edge", "above-edge", "any"]))
    if mode == "any":
        acc_bound = draw(st.one_of(st.sampled_from([0, 1]), st.integers(0, 1 << 30)))
    else:
        # Largest bound whose every channel keeps acc*|M| + |C| < 2^53.
        edges = [
            (F64_EDGE - 1 - abs(b + (z_y << r))) // abs(m)
            for m, b, r in chans if m != 0
        ]
        assume(edges and min(edges) >= 0)
        acc_bound = min(edges) + (mode == "above-edge")
    # The reference computes (Phi + bq) * m0 << lshift in int64; only
    # parameters it evaluates without overflow define Eq. 5.
    assume(all(
        ((acc_bound + abs(bq[i])) * abs(m0[i]) << max(-shift[i], 0)) + qmax < (1 << 63)
        for i in range(c)
    ))
    return SimpleNamespace(
        out_bits=out_bits, qmax=qmax, z_y=z_y, per_channel=per_channel, c=c,
        bq=np.array(bq, dtype=np.int64), m0=np.array(m0, dtype=np.int64),
        n0=np.array([M0_FRACTIONAL_BITS - s for s in shift], dtype=np.int64),
        chans=chans, acc_bound=acc_bound,
    )


def _compile(case):
    if case.per_channel:
        params = ICNParams(
            weights_q=np.zeros((case.c, 1, 1, 1), dtype=np.uint8),
            z_w=np.zeros(case.c, dtype=np.int64), z_x=0, z_y=case.z_y,
            bq=case.bq, m0=case.m0, n0=case.n0, out_bits=case.out_bits,
            w_bits=8, per_channel=True,
        )
        return params, _compile_icn_requant(params, case.acc_bound, "eq5")
    params = FoldedBNParams(
        weights_q=np.zeros((case.c, 1, 1, 1), dtype=np.uint8), z_w=0, z_x=0,
        z_y=case.z_y, bq=case.bq, m0=int(case.m0[0]), n0=int(case.n0[0]),
        out_bits=case.out_bits, w_bits=8,
    )
    return params, _compile_folded_requant(params, case.acc_bound, "eq5")


def _reference(case, params, phi):
    if case.per_channel:
        return icn_requantize(phi, params)
    return folded_requantize(phi, params)


def _level_edges(case, levels):
    """Per channel, the accumulator values around each step of Eq. 5's
    staircase: ``floor(((j - z_y) * 2^rshift - B) / M) + {-1, 0, 1}``
    for each output level ``j`` — where a rounding or off-by-one slip
    in the epilogue shows — clipped to ``[-acc_bound, acc_bound]``."""
    a = case.acc_bound
    cols = []
    for m, b, r in case.chans:
        row = []
        for j in levels:
            edge = (((j - case.z_y) << r) - b) // m if m else 0
            row += [min(max(edge + d, -a), a) for d in (-1, 0, 1)]
        cols.append(row)
    return np.array(cols, dtype=np.int64)


def _accumulator_dtypes(acc_bound):
    """Every accumulator dtype the plan may hand the epilogue at this bound."""
    dtypes = [np.int64]
    if acc_bound < F64_EDGE:
        dtypes.append(np.float64)
    if acc_bound < (1 << 31):
        dtypes.append(np.int32)
    if acc_bound < (1 << 24):
        dtypes.append(np.float32)
    return dtypes


def _on_float64_tier(requant):
    """``requant`` moved onto the float64 tier, its constants folded as
    the compiler folds them."""
    forced = copy.copy(requant)
    c_int = requant.b_int + np.left_shift(np.int64(requant.z_y), requant.rshift)
    forced.m_f64 = np.ldexp(np.asarray(requant.m_int, dtype=np.float64), -requant.rshift)
    forced.c_f64 = np.ldexp(c_int.astype(np.float64), -requant.rshift)
    forced.tier = "f64"
    return forced


def _on_int64_tier(requant):
    """``requant`` moved onto the int64 tier (no float64 constants)."""
    forced = copy.copy(requant)
    forced.m_f64 = forced.c_f64 = None
    forced.tier = "i64"
    return forced


def _verify(case, requant):
    layer = SimpleNamespace(
        name="probe", requant=requant, out_bits=case.out_bits,
        out_channels=case.c, acc_bound=case.acc_bound,
    )
    report = VerificationReport()
    _check_requant(layer, report)
    return report


@settings(max_examples=150, deadline=None)
@given(case=eq5_cases(), seed=st.integers(0, 2 ** 16), n=st.integers(1, 3))
def test_both_tiers_match_the_reference(case, seed, n):
    rng = np.random.default_rng(seed)
    a = case.acc_bound
    levels = [0, 1, case.qmax // 2, case.qmax, int(rng.integers(case.qmax + 1))]
    edges = _level_edges(case, levels)
    phi = rng.integers(-a, a + 1, size=(n, case.c, 7 + edges.shape[1]), dtype=np.int64)
    phi[:, :, 7:] = edges
    phi[0, :, 0], phi[0, :, 1], phi[-1, :, 2] = a, -a, 0  # |Phi| at the bound
    params, fast = _compile(case)
    ref = _reference(case, params, phi)

    worst = max(a * abs(m) + abs(b + (case.z_y << r)) for m, b, r in case.chans)
    # Float64 only when provably below the edge; always when clear of
    # the compiler's margin.
    if fast.tier == "f64":
        assert worst < F64_EDGE
    if worst < F64_EDGE - (1 << 12):
        assert fast.tier == "f64"
    if fast.tier == "f64":
        requants = [fast, _on_int64_tier(fast)]
    else:
        requants = [fast]
        forced = _on_float64_tier(fast)
        if worst < F64_EDGE:
            requants.append(forced)
        else:
            assert not _verify(case, forced).ok
    for requant in requants:
        report = _verify(case, requant)
        assert report.ok, report.violations
        assert report.tiers == {"probe": requant.tier}

    for requant in requants:
        for dtype in _accumulator_dtypes(a):
            acc = phi.astype(dtype)
            # One chunk per image (the scratch holds an image) and the
            # chunk loop (a scratch of two columns).
            for scratch_size in (phi[0].size, 2 * case.c):
                out = np.empty(phi.shape, dtype=np.uint8)
                scratch = np.empty(scratch_size, dtype=np.int64)
                requant.run(requant.bind(acc, out, scratch, (0, case.c)))
                np.testing.assert_array_equal(out, ref, err_msg=f"{requant.tier} {dtype}")
