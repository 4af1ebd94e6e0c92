"""Deployment reporting: does a quantized network fit a device, and how
fast does it run there (paper §5–6)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.memory_model import MemoryModel
from repro.core.mixed_precision import search_mixed_precision
from repro.core.policy import QuantMethod, QuantPolicy
from repro.mcu.device import MCUDevice
from repro.mcu.latency import CMSISNNCostModel, DEFAULT_COST_MODEL, network_cycles
from repro.models.model_zoo import NetworkSpec


@dataclass
class DeploymentReport:
    """Summary of deploying one network configuration on one device."""

    network: str
    device: str
    method: QuantMethod
    policy: QuantPolicy
    ro_bytes: int
    rw_peak_bytes: int
    fits: bool
    total_cycles: float
    latency_ms: float
    fps: float

    def summary(self) -> str:
        lines = [
            f"{self.network} on {self.device} [{self.method.value}]",
            f"  read-only memory : {self.ro_bytes / 1024 / 1024:6.2f} MB",
            f"  read-write peak  : {self.rw_peak_bytes / 1024:6.1f} kB",
            f"  fits budgets     : {'yes' if self.fits else 'NO'}",
            f"  latency          : {self.latency_ms:8.1f} ms  ({self.fps:5.2f} fps, "
            f"{self.total_cycles / 1e6:.1f} Mcycles)",
        ]
        return "\n".join(lines)


def check_fit(spec: NetworkSpec, policy: QuantPolicy, device: MCUDevice) -> bool:
    """Whether the policy satisfies the device's Flash and RAM budgets."""
    return MemoryModel(spec).fits(policy, device.flash_bytes, device.ram_bytes)


def assert_arena_fits(plan, device: MCUDevice, input_hw,
                      check_physical: bool = True) -> int:
    """Assert a *compiled* plan's activation peak fits the device RAM.

    ``plan`` is an :class:`~repro.inference.plan.ExecutionPlan` (a
    :class:`repro.runtime.Session` is accepted too and unwrapped); the
    check uses the arena's logical (Eq. 7, packed-code) RW peak — the
    runtime counterpart of :func:`check_fit`'s analytical term, derived
    from the actual compiled layer stack instead of a
    :class:`NetworkSpec`.

    With ``check_physical`` (default), a pure 8-bit plan must
    additionally allocate its container-width ping-pong code pair
    within the Eq. 7 peak — the runtime's physical activation bytes are
    asserted not to exceed the paper's accounting (they agree *exactly*
    on every model-zoo pyramid, which the tests pin down), so a
    regression back to inflated (e.g. int64) containers cannot pass the
    deployment gate.  Sub-byte activations keep the one-byte container
    (physical >= logical by design) and are not checked.  Disable for
    exotic topologies where the ping-pong schedule is legitimately
    looser than the per-layer pair bound.

    Returns the logical peak in bytes; raises ``ValueError`` when it
    exceeds the device's RW budget or the physical check fails.
    """
    from repro.runtime.session import Session

    if isinstance(plan, Session):
        plan = plan.plan
    arena = plan.arena_for(input_hw)
    peak = arena.logical_rw_peak_bytes
    if peak > device.ram_bytes:
        raise ValueError(
            f"activation arena peak {peak} B exceeds {device.name} "
            f"RW budget {device.ram_bytes} B for input "
            f"{int(input_hw[0])}x{int(input_hw[1])}"
        )
    conv = [p for p in arena.plans if p.kind != "fc"]
    pure_8bit = bool(conv) and all(
        p.in_bits == 8 and p.out_bits == 8 and p.out_itemsize == 1
        for p in conv
    )
    if check_physical and pure_8bit:
        physical = arena.physical_code_bytes(1)
        if physical > peak:
            raise ValueError(
                f"physical code slabs ({physical} B at container width) "
                f"exceed the Eq. 7 RW peak ({peak} B) for a pure 8-bit "
                f"network — the arena no longer mirrors the paper's "
                f"memory model"
            )
    return peak


def deploy(
    spec: NetworkSpec,
    device: MCUDevice,
    method: QuantMethod = QuantMethod.PC_ICN,
    policy: Optional[QuantPolicy] = None,
    cost_model: CMSISNNCostModel = DEFAULT_COST_MODEL,
    strict: bool = False,
) -> DeploymentReport:
    """Run the memory-driven search (unless a policy is supplied) and
    produce the deployment report for ``spec`` on ``device``."""
    if policy is None:
        policy = search_mixed_precision(
            spec, device.flash_bytes, device.ram_bytes, method=method, strict=strict
        )
    memory = MemoryModel(spec)
    ro = memory.ro_bytes(policy)
    rw = memory.rw_peak_bytes(policy)
    latency = network_cycles(spec, policy, cost_model)
    total = latency.total_cycles
    return DeploymentReport(
        network=spec.name,
        device=device.name,
        method=policy.method,
        policy=policy,
        ro_bytes=ro,
        rw_peak_bytes=rw,
        fits=ro <= device.flash_bytes and rw <= device.ram_bytes,
        total_cycles=total,
        latency_ms=1000.0 * total / device.clock_hz,
        fps=device.clock_hz / total if total else float("inf"),
    )
