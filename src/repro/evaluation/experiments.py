"""One entry point per paper table/figure (the per-experiment index of
DESIGN.md).  Each function returns plain data structures; the benchmark
scripts render and time them, and EXPERIMENTS.md records the outputs next
to the paper's numbers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.memory_model import MemoryModel, layer_extra_params_bytes, table1_row
from repro.core.mixed_precision import search_mixed_precision
from repro.core.policy import QuantMethod, QuantPolicy
from repro.evaluation.accuracy_model import AccuracyModel
from repro.evaluation.pareto import ParetoPoint, pareto_frontier
from repro.mcu.device import MB, KB, STM32H7, MCUDevice
from repro.mcu.latency import CMSISNNCostModel, DEFAULT_COST_MODEL, network_cycles
from repro.models.model_zoo import (
    all_mobilenet_configs,
    mobilenet_v1_spec,
    NetworkSpec,
)

#: Deployment strategies plotted in Figure 2 ("MixQ-PL" uses per-layer
#: quantization with ICN where sub-byte precision is required; see §6).
FIGURE2_METHODS: Dict[str, QuantMethod] = {
    "MixQ-PL": QuantMethod.PL_ICN,
    "MixQ-PC-ICN": QuantMethod.PC_ICN,
}


# ----------------------------------------------------------------------
# Table 1 — memory requirements of a quantized convolutional layer
# ----------------------------------------------------------------------
def table1(layer_index: int = 14, spec: Optional[NetworkSpec] = None) -> Dict:
    """Element counts (Table 1) for one representative layer of
    MobileNetV1_224_1.0 and the resulting per-method byte totals."""
    spec = spec or mobilenet_v1_spec(224, 1.0)
    layer = spec.layers[layer_index]
    rows = {}
    memory = MemoryModel(spec)
    for method in QuantMethod:
        counts = table1_row(layer, method, q_out=4)
        policy = QuantPolicy.uniform(spec, method=method, bits=4)
        rows[method.value] = {
            "counts": counts,
            "layer_extra_bytes": layer_extra_params_bytes(layer, method, q_out=4),
            "network_ro_bytes": memory.ro_bytes(policy),
        }
    return {"layer": layer.name, "spec": spec.name, "rows": rows}


# ----------------------------------------------------------------------
# Table 2 — integer-only MobileNetV1_224_1.0
# ----------------------------------------------------------------------
@dataclass
class Table2Row:
    label: str
    top1: float
    weight_mb: float


def table2(accuracy_model: Optional[AccuracyModel] = None) -> List[Table2Row]:
    """Uniform INT8/INT4 deployments of MobileNetV1_224_1.0 (Table 2)."""
    spec = mobilenet_v1_spec(224, 1.0)
    model = accuracy_model or AccuracyModel()
    memory = MemoryModel(spec)
    rows: List[Table2Row] = [
        Table2Row("Full-precision", model.full_precision_top1(spec), spec.total_weights * 4 / MB)
    ]
    cases = [
        ("PL+FB INT8", QuantMethod.PL_FB, 8),
        ("PL+FB INT4", QuantMethod.PL_FB, 4),
        ("PL+ICN INT4", QuantMethod.PL_ICN, 4),
        ("PC+ICN INT4", QuantMethod.PC_ICN, 4),
        ("PC+Thresholds INT4", QuantMethod.PC_THRESHOLDS, 4),
    ]
    for label, method, bits in cases:
        policy = QuantPolicy.uniform(spec, method=method, bits=bits)
        rows.append(
            Table2Row(
                label,
                model.predict_top1(spec, policy),
                memory.ro_bytes(policy) / MB,
            )
        )
    return rows


# ----------------------------------------------------------------------
# Figure 2 — accuracy-latency trade-off on the STM32H7
# ----------------------------------------------------------------------
@dataclass
class TradeoffPoint:
    """One network configuration deployed with one strategy."""

    label: str
    method: str
    resolution: int
    width_multiplier: float
    top1: float
    cycles: float
    fps: float
    ro_bytes: int
    rw_peak_bytes: int
    feasible: bool
    policy: QuantPolicy


def figure2(
    device: MCUDevice = STM32H7,
    cost_model: CMSISNNCostModel = DEFAULT_COST_MODEL,
    accuracy_model: Optional[AccuracyModel] = None,
    num_classes: int = 1000,
) -> Dict:
    """All 16 MobileNetV1 configurations under both Figure-2 strategies."""
    acc_model = accuracy_model or AccuracyModel()
    points: List[TradeoffPoint] = []
    for spec in all_mobilenet_configs(num_classes=num_classes):
        for method_label, method in FIGURE2_METHODS.items():
            policy = search_mixed_precision(
                spec, device.flash_bytes, device.ram_bytes, method=method, strict=False
            )
            memory = MemoryModel(spec)
            latency = network_cycles(spec, policy, cost_model)
            points.append(
                TradeoffPoint(
                    label=spec.label,
                    method=method_label,
                    resolution=spec.resolution,
                    width_multiplier=spec.width_multiplier,
                    top1=acc_model.predict_top1(spec, policy),
                    cycles=latency.total_cycles,
                    fps=device.cycles_to_fps(latency.total_cycles),
                    ro_bytes=memory.ro_bytes(policy),
                    rw_peak_bytes=memory.rw_peak_bytes(policy),
                    feasible=policy.feasible,
                    policy=policy,
                )
            )
    pareto_points = [
        ParetoPoint(f"{p.label} {p.method}", p.cycles, p.top1, p.method)
        for p in points
        if p.feasible
    ]
    return {
        "device": device.name,
        "points": points,
        "pareto": pareto_frontier(pareto_points),
    }


# ----------------------------------------------------------------------
# Table 3 — comparison at MRO = 1 MB
# ----------------------------------------------------------------------
@dataclass
class Table3Row:
    label: str
    method: str
    top1: float
    ro_mb: float
    rw_kb: float
    feasible: bool


def table3(accuracy_model: Optional[AccuracyModel] = None) -> List[Table3Row]:
    """Mixed-precision deployments under a 1 MB read-only budget."""
    acc_model = accuracy_model or AccuracyModel()
    rows: List[Table3Row] = []
    cases = [
        ("MobilenetV1_224_0.5", 224, 0.5, 1 * MB, 512 * KB, QuantMethod.PC_ICN, "MixQ-PC-ICN"),
        ("MobilenetV1_192_0.5", 192, 0.5, 1 * MB, 256 * KB, QuantMethod.PC_ICN, "MixQ-PC-ICN"),
    ]
    for label, res, wm, ro_budget, rw_budget, method, method_label in cases:
        spec = mobilenet_v1_spec(res, wm)
        policy = search_mixed_precision(spec, ro_budget, rw_budget, method=method, strict=False)
        memory = MemoryModel(spec)
        rows.append(
            Table3Row(
                label=label,
                method=method_label,
                top1=acc_model.predict_top1(spec, policy),
                ro_mb=memory.ro_bytes(policy) / MB,
                rw_kb=memory.rw_peak_bytes(policy) / KB,
                feasible=policy.feasible,
            )
        )
    # INT8 PL+FB reference points ([11]) for the same family.
    for label, res, wm in [("MobilenetV1_224_0.5", 224, 0.5), ("MobilenetV1_224_0.25", 224, 0.25)]:
        spec = mobilenet_v1_spec(res, wm)
        policy = QuantPolicy.uniform(spec, method=QuantMethod.PL_FB, bits=8)
        memory = MemoryModel(spec)
        rows.append(
            Table3Row(
                label=label,
                method="INT8 PL+FB [11]",
                top1=acc_model.predict_top1(spec, policy),
                ro_mb=memory.ro_bytes(policy) / MB,
                rw_kb=memory.rw_peak_bytes(policy) / KB,
                feasible=memory.ro_bytes(policy) <= 2 * MB,
            )
        )
    return rows


# ----------------------------------------------------------------------
# Measured integer inference (compiled engine, bounded-memory sweeps)
# ----------------------------------------------------------------------
def evaluate_integer_network(
    net,
    x: np.ndarray,
    labels: Optional[np.ndarray] = None,
    batch_size: int = 64,
    compiled: bool = True,
) -> Dict:
    """Measured (not modeled) inference of an ``IntegerNetwork`` sweep.

    Unlike the analytical table/figure entry points above, this actually
    executes the deployment graph on ``x`` (N, C, H, W real images).  With
    ``compiled=True`` the sweep streams through a compiled
    :class:`~repro.inference.plan.ExecutionPlan` in ``batch_size`` tiles,
    so peak memory is bounded by one tile regardless of the sweep size;
    ``compiled=False`` keeps the interpreted int64 reference path for
    cross-checks.  Returns predictions and, when ``labels`` is given, the
    measured top-1.
    """
    x = np.asarray(x)
    if compiled:
        plan = net.compile()
        logits = plan.run_batched(x, batch_size=batch_size)
    elif x.shape[0] <= batch_size:
        logits = net.forward(x)
    else:
        logits = np.concatenate(
            [net.forward(x[i:i + batch_size]) for i in range(0, x.shape[0], batch_size)],
            axis=0,
        )
    preds = np.argmax(logits, axis=1)
    out: Dict = {
        "num_images": int(x.shape[0]),
        "batch_size": int(batch_size),
        "compiled": bool(compiled),
        "predictions": preds,
    }
    if labels is not None:
        out["top1"] = float(np.mean(preds == np.asarray(labels)))
    return out


# ----------------------------------------------------------------------
# Figure 3 / Table 4 — per-tensor bit widths and Top-1 of every config
# ----------------------------------------------------------------------
def figure3(device: MCUDevice = STM32H7, num_classes: int = 1000) -> Dict[str, Dict[str, QuantPolicy]]:
    """Per-tensor bit precision chosen by the search for every config."""
    result: Dict[str, Dict[str, QuantPolicy]] = {}
    for spec in all_mobilenet_configs(num_classes=num_classes):
        per_method = {}
        for method_label, method in FIGURE2_METHODS.items():
            per_method[method_label] = search_mixed_precision(
                spec, device.flash_bytes, device.ram_bytes, method=method, strict=False
            )
        result[spec.label] = per_method
    return result


def table4(
    device: MCUDevice = STM32H7,
    accuracy_model: Optional[AccuracyModel] = None,
) -> Dict[str, Tuple[float, float]]:
    """Top-1 of (MixQ-PL, MixQ-PC-ICN) for every configuration (Table 4)."""
    acc_model = accuracy_model or AccuracyModel()
    fig = figure2(device=device, accuracy_model=acc_model)
    by_config: Dict[str, Dict[str, float]] = {}
    for p in fig["points"]:
        by_config.setdefault(p.label, {})[p.method] = p.top1
    return {
        label: (vals.get("MixQ-PL", 0.0), vals.get("MixQ-PC-ICN", 0.0))
        for label, vals in by_config.items()
    }
