"""Deployment export: serialise an integer network into a flat dictionary
and account for its on-device (Flash) size.

The export format mirrors what a firmware image would embed: packed weight
blobs plus the per-layer static parameter vectors of Table 1.  It is used
by the end-to-end examples and by tests that check the deployment size
matches the analytical memory model.
"""

from __future__ import annotations

import zlib
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.icn import FoldedBNParams, ICNParams, ThresholdParams
from repro.inference.engine import (
    IntegerAvgPool,
    IntegerConvLayer,
    IntegerLinearLayer,
    IntegerNetwork,
)
from repro.inference.kernels import gemm_reduction_length
from repro.inference.packing import (
    container_dtype,
    pack_subbyte,
    packed_size_bytes,
    unpack_subbyte,
)

# Byte widths of the auxiliary arrays (§4.1 of the paper).
_BYTES = {"bq": 4, "m0": 4, "n0": 1, "thr": 4, "z_scalar": 1, "z_pc": 2}


def _layer_aux_bytes(params) -> int:
    """Static-parameter bytes of one layer, by requantization strategy."""
    if isinstance(params, ICNParams):
        c_o = params.out_channels
        zw_bytes = c_o * _BYTES["z_pc"] if params.per_channel else _BYTES["z_scalar"]
        return (
            2 * _BYTES["z_scalar"]  # Zx, Zy
            + zw_bytes
            + c_o * (_BYTES["bq"] + _BYTES["m0"] + _BYTES["n0"])
        )
    if isinstance(params, FoldedBNParams):
        c_o = params.bq.shape[0]
        return (
            2 * _BYTES["z_scalar"]
            + _BYTES["z_scalar"]
            + c_o * _BYTES["bq"]
            + _BYTES["m0"]
            + _BYTES["n0"]
        )
    if isinstance(params, ThresholdParams):
        c_o = params.thresholds.shape[0]
        return (
            2 * _BYTES["z_scalar"]
            + c_o * _BYTES["z_pc"]
            + params.thresholds.size * _BYTES["thr"]
        )
    raise TypeError(f"unsupported params type {type(params)!r}")


def _requant_state(params) -> Dict:
    """Full requantization parameters of one layer, keyed for re-import.

    Everything :func:`import_network` needs to rebuild the params
    dataclass bit-identically, minus what the entry itself already
    carries (``w_bits``, ``out_bits``, the packed weights).
    """
    if isinstance(params, ICNParams):
        return {
            "z_w": np.asarray(params.z_w),
            "z_x": int(params.z_x),
            "z_y": int(params.z_y),
            "bq": np.asarray(params.bq),
            "m0": np.asarray(params.m0),
            "n0": np.asarray(params.n0),
            "per_channel": bool(params.per_channel),
        }
    if isinstance(params, FoldedBNParams):
        return {
            "z_w": int(params.z_w),
            "z_x": int(params.z_x),
            "z_y": int(params.z_y),
            "bq": np.asarray(params.bq),
            "m0": int(params.m0),
            "n0": int(params.n0),
        }
    if isinstance(params, ThresholdParams):
        return {
            "z_w": np.asarray(params.z_w),
            "z_x": int(params.z_x),
            "thresholds": np.asarray(params.thresholds),
            "direction": np.asarray(params.direction),
        }
    raise TypeError(f"unsupported params type {type(params)!r}")


def export_network(net: IntegerNetwork, input_hw: Optional[Tuple[int, int]] = None,
                   plan=None) -> Dict:
    """Serialise the network into a nested dict of plain arrays/ints.

    The export is *complete*: besides the packed weight blobs and the
    Table 1 size accounting it carries every requantization parameter
    and boundary scale, so :func:`import_network` can rebuild a
    bit-identical :class:`IntegerNetwork` with no reference to the
    original — the round trip the ``repro.runtime`` session artifact is
    built on.

    With ``input_hw`` the export also carries the runtime activation
    plan, read from ``plan.arena_for(input_hw)``: per-layer activation
    element counts plus the Eq. 7 RW peak, so a deployment can assert
    ``arena["rw_peak_bytes"] <= device RAM`` without re-deriving the
    geometry cascade.  ``plan`` is ``net``'s compiled
    :class:`~repro.inference.plan.ExecutionPlan`; without one, ``net``
    is compiled here.
    """
    layers = []
    for layer in net.conv_layers:
        p = layer.params
        w_shape = p.weights_q.shape
        packed = pack_subbyte(p.weights_q, p.w_bits)
        entry = {
            "name": layer.name,
            "kind": layer.kind,
            "stride": layer.stride,
            "padding": layer.padding,
            "w_bits": p.w_bits,
            "out_bits": p.out_bits,
            "in_bits": layer.in_bits,
            "in_scale": float(layer.in_scale),
            "out_scale": float(layer.out_scale),
            "weight_shape": list(w_shape),
            "weights_packed": packed,
            "weight_bytes": packed_size_bytes(int(p.weights_q.size), p.w_bits),
            # Narrow container the packed blob unpacks into on the host
            # (uint8 for every paper width — never int64).
            "container_dtype": container_dtype(p.w_bits).name,
            "weights_crc32": zlib.crc32(packed.data),
            "aux_bytes": _layer_aux_bytes(p),
            "strategy": type(p).__name__,
            "requant": _requant_state(p),
            "k_reduction": gemm_reduction_length(layer.kind, w_shape),
        }
        layers.append(entry)
    out = {"conv_layers": layers}
    if net.classifier is not None:
        cl = net.classifier
        packed = pack_subbyte(cl.weights_q, cl.w_bits)
        out["classifier"] = {
            "name": cl.name,
            "w_bits": cl.w_bits,
            "in_bits": cl.in_bits,
            "k_reduction": gemm_reduction_length("fc", cl.weights_q.shape),
            "weight_shape": list(cl.weights_q.shape),
            "weights_packed": packed,
            "weight_bytes": packed_size_bytes(int(cl.weights_q.size), cl.w_bits),
            "container_dtype": container_dtype(cl.w_bits).name,
            "weights_crc32": zlib.crc32(packed.data),
            "aux_bytes": int(np.asarray(cl.s_w).size) * (_BYTES["bq"] + _BYTES["z_pc"])
            + (0 if cl.bias is None else cl.bias.size * 4),
            "strategy": "linear",
            "z_w": np.asarray(cl.z_w),
            "s_w": np.asarray(cl.s_w, dtype=np.float64),
            "z_x": int(cl.z_x),
            "s_in": float(cl.s_in),
            "bias": None if cl.bias is None else np.asarray(cl.bias, dtype=np.float64),
        }
    out["pool"] = net.pool is not None
    out["input"] = {
        "scale": net.input_scale,
        "zero_point": net.input_zero_point,
        "bits": net.input_bits,
    }
    if input_hw is not None:
        # The compiled plan's own arena for this geometry (planning
        # allocates nothing), so the runtime's sizing rules are the
        # single source of truth.  Its physical code bytes are the
        # container-width ping-pong pair (equal to the Eq. 7 peak for
        # pure 8-bit networks, >= it for sub-byte).
        arena = (plan or net.compile()).arena_for(input_hw)
        conv_plans = [p for p in arena.plans if p.kind != "fc"]
        for entry, p in zip(layers, conv_plans):
            entry["activations"] = {
                "in_shape": list(p.in_shape),
                "out_shape": list(p.out_shape),
                "rw_bytes": p.rw_bytes,
                "physical_out_bytes": p.physical_out_bytes,
            }
        out["arena"] = {
            "input_hw": [int(input_hw[0]), int(input_hw[1])],
            "rw_peak_bytes": arena.logical_rw_peak_bytes,
            "physical_code_bytes": arena.physical_code_bytes(1),
            "per_layer_rw_bytes": [p.rw_bytes for p in arena.plans],
        }
    return out


def validate_export(exported: Dict) -> Dict[str, int]:
    """Validate the packed narrow weight blobs of an exported network.

    For every conv layer and the classifier: the packed blob must have
    exactly the byte length the Table 1 accounting predicts, match its
    recorded CRC32 (packing masks codes into range by construction, so a
    checksum — not a range scan — is what detects a corrupted blob), and
    declare the narrow container :func:`container_dtype` of its bit
    width.  Nothing is unpacked: the length check already proves the
    blob holds one code per weight element, and
    :func:`~repro.inference.packing.unpack_subbyte` always unpacks into
    that container, so :func:`import_network` unpacks each blob once.
    Returns summary counts (``layers``, ``weight_bytes``); raises
    ``ValueError`` on the first violation — the deployment-side
    integrity check a firmware loader would run before committing the
    image to Flash.
    """
    entries = list(exported["conv_layers"])
    if "classifier" in exported:
        entries.append(exported["classifier"])
    total = 0
    for entry in entries:
        name = entry["name"]
        bits = int(entry["w_bits"])
        count = int(np.prod(entry["weight_shape"]))
        blob = np.asarray(entry["weights_packed"], dtype=np.uint8)
        expected = packed_size_bytes(count, bits)
        if blob.size != expected or entry["weight_bytes"] != expected:
            raise ValueError(
                f"{name}: packed blob is {blob.size} B, expected {expected} B "
                f"for {count} UINT{bits} codes"
            )
        # CRC straight off the array's buffer: tobytes() would briefly
        # duplicate every weight blob, defeating the mmap load path.
        crc = zlib.crc32(np.ascontiguousarray(blob).data)
        if crc != int(entry["weights_crc32"]):
            raise ValueError(
                f"{name}: packed blob checksum {crc:#010x} does not match the "
                f"recorded CRC32 {int(entry['weights_crc32']):#010x}"
            )
        declared = np.dtype(entry["container_dtype"])
        if declared != container_dtype(bits):
            raise ValueError(
                f"{name}: UINT{bits} codes unpack to {container_dtype(bits)}, "
                f"declared container is {declared}"
            )
        total += expected
    return {"layers": len(entries), "weight_bytes": total}


def _unpack_entry_weights(entry: Dict) -> np.ndarray:
    """Unpack one export entry's weight blob back into container codes."""
    bits = int(entry["w_bits"])
    shape = tuple(int(d) for d in entry["weight_shape"])
    count = int(np.prod(shape)) if shape else 1
    codes = unpack_subbyte(
        np.asarray(entry["weights_packed"], dtype=np.uint8), bits, count
    )
    return codes.reshape(shape)


def _import_requant(entry: Dict):
    """Rebuild the requantization params dataclass of one export entry."""
    if "requant" not in entry:
        raise ValueError(
            f"{entry.get('name', '<layer>')}: export carries no 'requant' "
            f"section — re-export the network with export_network() to get "
            f"a round-trippable dict"
        )
    r = entry["requant"]
    w = _unpack_entry_weights(entry)
    strategy = entry["strategy"]
    if strategy == "ICNParams":
        return ICNParams(
            weights_q=w,
            z_w=np.asarray(r["z_w"]),
            z_x=int(r["z_x"]),
            z_y=int(r["z_y"]),
            bq=np.asarray(r["bq"]),
            m0=np.asarray(r["m0"]),
            n0=np.asarray(r["n0"]),
            out_bits=int(entry["out_bits"]),
            w_bits=int(entry["w_bits"]),
            per_channel=bool(r["per_channel"]),
        )
    if strategy == "FoldedBNParams":
        return FoldedBNParams(
            weights_q=w,
            z_w=int(r["z_w"]),
            z_x=int(r["z_x"]),
            z_y=int(r["z_y"]),
            bq=np.asarray(r["bq"]),
            m0=int(r["m0"]),
            n0=int(r["n0"]),
            out_bits=int(entry["out_bits"]),
            w_bits=int(entry["w_bits"]),
        )
    if strategy == "ThresholdParams":
        return ThresholdParams(
            weights_q=w,
            z_w=np.asarray(r["z_w"]),
            z_x=int(r["z_x"]),
            thresholds=np.asarray(r["thresholds"]),
            direction=np.asarray(r["direction"]),
            out_bits=int(entry["out_bits"]),
            w_bits=int(entry["w_bits"]),
        )
    raise ValueError(f"unknown requantization strategy {strategy!r}")


def import_network(exported: Dict) -> IntegerNetwork:
    """Rebuild an :class:`IntegerNetwork` from an :func:`export_network` dict.

    The inverse of :func:`export_network`: weights are unpacked from the
    narrow blobs into their container dtype and every requantization
    parameter is restored exactly, so the imported network's
    ``forward``/``compile`` are bit-identical to the original's.  Run
    :func:`validate_export` first when the dict crossed a disk or
    network boundary — import itself trusts the blobs.
    """
    conv_layers = []
    for entry in exported["conv_layers"]:
        conv_layers.append(
            IntegerConvLayer(
                name=str(entry["name"]),
                kind=str(entry["kind"]),
                stride=int(entry["stride"]),
                padding=int(entry["padding"]),
                params=_import_requant(entry),
                in_bits=int(entry["in_bits"]),
                out_bits=int(entry["out_bits"]),
                in_scale=float(entry.get("in_scale", 0.0)),
                out_scale=float(entry.get("out_scale", 0.0)),
            )
        )
    classifier = None
    if "classifier" in exported:
        cl = exported["classifier"]
        if "s_w" not in cl:
            raise ValueError(
                "classifier entry carries no dequantization state — "
                "re-export the network with export_network()"
            )
        bias = cl.get("bias")
        classifier = IntegerLinearLayer(
            name=str(cl["name"]),
            weights_q=_unpack_entry_weights(cl),
            z_w=np.asarray(cl["z_w"]),
            s_w=np.asarray(cl["s_w"], dtype=np.float64),
            z_x=int(cl["z_x"]),
            s_in=float(cl["s_in"]),
            bias=None if bias is None else np.asarray(bias, dtype=np.float64),
            in_bits=int(cl["in_bits"]),
            w_bits=int(cl["w_bits"]),
        )
    inp = exported["input"]
    return IntegerNetwork(
        conv_layers=conv_layers,
        pool=IntegerAvgPool() if exported.get("pool", True) else None,
        classifier=classifier,
        input_scale=float(inp["scale"]),
        input_zero_point=int(inp["zero_point"]),
        input_bits=int(inp["bits"]),
    )


def deployment_size_bytes(net: IntegerNetwork) -> Dict[str, int]:
    """Flash footprint of the exported network, split by contribution."""
    exported = export_network(net)
    weight_bytes = sum(l["weight_bytes"] for l in exported["conv_layers"])
    aux_bytes = sum(l["aux_bytes"] for l in exported["conv_layers"])
    if "classifier" in exported:
        weight_bytes += exported["classifier"]["weight_bytes"]
        aux_bytes += exported["classifier"]["aux_bytes"]
    return {
        "weights": int(weight_bytes),
        "aux_params": int(aux_bytes),
        "total": int(weight_bytes + aux_bytes),
    }
