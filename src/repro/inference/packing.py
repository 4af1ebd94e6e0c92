"""Sub-byte bit packing of UINT2 / UINT4 / UINT8 tensors and the
narrow *container* dtypes codes live in while at rest on the host.

The MCU stores weight (and activation) tensors bit-packed: four 2-bit or
two 4-bit values per byte, little-end first within each byte, matching the
layout the extended CMSIS-NN kernels of the paper unpack in their inner
loop.  The functions here are used both by the deployment-size accounting
and by tests that round-trip tensors through the packed representation.

On the host, codes are held in the smallest numpy integer dtype that can
represent them — the tensor's *container dtype* (:func:`container_dtype`)
— rather than int64: unpacked UINT-Q codes (Q <= 8) live in ``uint8``.

Sub-byte tensors stay bit-packed at rest and are unpacked once (at compile
or load time) into their container, never into int64.
"""

from __future__ import annotations

import math

import numpy as np

SUPPORTED_BITS = (2, 4, 8)


def container_dtype(bits: int, signed: bool = False) -> np.dtype:
    """Smallest integer dtype that holds ``bits``-bit codes.

    Unsigned codes span ``[0, 2^Q - 1]``; signed codes (INT-Q) span
    ``[-2^(Q-1), 2^(Q-1) - 1]``.  This is the dtype quantized tensors are
    *stored* in on the host — the physical width the activation arena and
    the deployment blobs account for.
    """
    if bits < 1 or bits > 64:
        raise ValueError(f"unsupported bit width {bits}")
    if signed:
        for dt in (np.int8, np.int16, np.int32, np.int64):
            if bits <= np.iinfo(dt).bits:
                return np.dtype(dt)
    for dt in (np.uint8, np.uint16, np.uint32):
        if bits <= np.iinfo(dt).bits:
            return np.dtype(dt)
    return np.dtype(np.int64)


def packed_size_bytes(count: int, bits: int) -> int:
    """Number of bytes needed to store ``count`` values of ``bits`` bits."""
    if bits not in SUPPORTED_BITS:
        raise ValueError(f"bits must be one of {SUPPORTED_BITS}, got {bits}")
    if count < 0:
        raise ValueError("count must be non-negative")
    return math.ceil(count * bits / 8)


def pack_subbyte(values: np.ndarray, bits: int) -> np.ndarray:
    """Pack an array of unsigned integer codes into a uint8 byte stream.

    Values are flattened in C order; within one byte the first value
    occupies the least-significant bits.
    """
    if bits not in SUPPORTED_BITS:
        raise ValueError(f"bits must be one of {SUPPORTED_BITS}, got {bits}")
    flat = np.asarray(values).reshape(-1)
    if flat.size and (flat.min() < 0 or flat.max() > 2 ** bits - 1):
        raise ValueError(f"values out of range for {bits}-bit packing")
    flat = flat.astype(np.uint8)
    if bits == 8:
        return flat.copy()
    per_byte = 8 // bits
    padded_len = math.ceil(flat.size / per_byte) * per_byte
    padded = np.zeros(padded_len, dtype=np.uint8)
    padded[: flat.size] = flat
    groups = padded.reshape(-1, per_byte)
    shifts = (np.arange(per_byte) * bits).astype(np.uint8)
    packed = np.bitwise_or.reduce(groups.astype(np.uint16) << shifts, axis=1)
    return packed.astype(np.uint8)


def unpack_subbyte(packed: np.ndarray, bits: int, count: int,
                   dtype=None) -> np.ndarray:
    """Inverse of :func:`pack_subbyte`.

    Returns ``count`` values in ``dtype``; by default the narrow
    :func:`container_dtype` of ``bits`` (uint8 for every paper width) —
    unpacking never inflates codes back to int64 unless asked to.

    8-bit codes are a view of the packed buffer.  A 2- or 4-bit blob is
    unpacked into one preallocated uint8 array, one shift-and-mask pass
    per code position: position ``j`` of every byte lands at stride
    ``8 // bits`` in the output.
    """
    if bits not in SUPPORTED_BITS:
        raise ValueError(f"bits must be one of {SUPPORTED_BITS}, got {bits}")
    if dtype is None:
        dtype = container_dtype(bits)
    packed = np.asarray(packed, dtype=np.uint8).reshape(-1)
    if bits == 8:
        if count > packed.size:
            raise ValueError("not enough packed bytes")
        # copy=False keeps 8-bit codes as a view of the packed buffer —
        # for an mmap-loaded artifact the weights stay on shared pages.
        return packed[:count].astype(dtype, copy=False)
    per_byte = 8 // bits
    if count > packed.size * per_byte:
        raise ValueError("not enough packed bytes")
    packed = packed[: -(-count // per_byte)]
    codes = np.empty((packed.size, per_byte), dtype=np.uint8)
    mask = np.uint8(2 ** bits - 1)
    for j in range(per_byte):
        position = codes[:, j]
        np.right_shift(packed, np.uint8(j * bits), out=position)
        if j < per_byte - 1:
            position &= mask
    return codes.reshape(-1)[:count].astype(dtype, copy=False)
