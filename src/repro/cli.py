"""Command line interface for the deployment flow.

Installed as the ``repro-mcu`` console script::

    repro-mcu search  --resolution 192 --width 0.75 --flash-mb 2 --ram-kb 512
    repro-mcu deploy  --resolution 224 --width 0.75 --device stm32h7 \
                      --save-artifact model.artifact
    repro-mcu run     model.artifact --batch 4 --profile
    repro-mcu serve   model.artifact --port 8707 --max-batch 8
    repro-mcu serve   --fleet artifacts/ --memory-budget-kb 1024
    repro-mcu check   model.artifact --self
    repro-mcu sweep   --device stm32h7 --method PC+ICN
    repro-mcu table   table2

``search`` prints the per-tensor bit assignment (and optionally writes it
as JSON), ``deploy`` adds the latency/memory report for a device preset
(and can materialise + save a servable session artifact), ``run`` loads
a saved artifact and serves it (the quantize → compile → serve round
trip of :mod:`repro.runtime`), ``serve`` exposes an artifact over the
fault-tolerant micro-batching HTTP front end of :mod:`repro.serving`,
``check`` statically verifies a saved artifact's compiled plan (and with
``--self`` lints the repo) without executing any inference, ``sweep``
reproduces the Figure-2 style family sweep, and ``table`` regenerates
one of the paper's tables on the terminal.

Operational errors (missing or corrupt artifacts, bad input files) exit
nonzero with a one-line ``error:`` message — never a traceback.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional, Sequence

import numpy as np

from repro.core.memory_model import MemoryModel
from repro.core.mixed_precision import search_mixed_precision
from repro.core.policy import QuantMethod, QuantPolicy
from repro.evaluation import experiments, paper_data
from repro.evaluation.accuracy_model import AccuracyModel
from repro.evaluation.tables import render_table
from repro.mcu.deploy import deploy
from repro.mcu.device import KB, MB, STM32F4, STM32F7, STM32H7, STM32L4, MCUDevice
from repro.models.model_zoo import mobilenet_v1_spec
from repro.runtime import ArtifactError, Session, pipeline

DEVICE_PRESETS = {
    "stm32h7": STM32H7,
    "stm32f7": STM32F7,
    "stm32f4": STM32F4,
    "stm32l4": STM32L4,
}


def _resolve_device(args: argparse.Namespace) -> MCUDevice:
    device = DEVICE_PRESETS[args.device]
    flash = int(args.flash_mb * MB) if args.flash_mb is not None else None
    ram = args.ram_kb * KB if args.ram_kb is not None else None
    if flash is not None or ram is not None:
        device = device.with_budgets(flash_bytes=flash, ram_bytes=ram)
    return device


def _add_network_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--resolution", type=int, default=224,
                        help="input resolution (128/160/192/224)")
    parser.add_argument("--width", type=float, default=1.0,
                        help="width multiplier (0.25/0.5/0.75/1.0)")


def _add_device_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--device", choices=sorted(DEVICE_PRESETS), default="stm32h7")
    parser.add_argument("--flash-mb", type=float, default=None,
                        help="override the device Flash budget in MB")
    parser.add_argument("--ram-kb", type=int, default=None,
                        help="override the device RAM budget in kB")
    parser.add_argument("--method", choices=[m.value for m in QuantMethod],
                        default=QuantMethod.PC_ICN.value)


def _cmd_search(args: argparse.Namespace) -> int:
    spec = mobilenet_v1_spec(args.resolution, args.width)
    device = _resolve_device(args)
    method = QuantMethod(args.method)
    policy = search_mixed_precision(
        spec, device.flash_bytes, device.ram_bytes, method=method, strict=False
    )
    print(policy.summary())
    memory = MemoryModel(spec)
    print(f"\nread-only : {memory.ro_bytes(policy) / MB:.2f} MB "
          f"(budget {device.flash_bytes / MB:.2f} MB)")
    print(f"read-write: {memory.rw_peak_bytes(policy) / KB:.0f} kB "
          f"(budget {device.ram_bytes / KB:.0f} kB)")
    print(f"feasible  : {policy.feasible}")
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(policy.to_json())
        print(f"policy written to {args.output}")
    return 0 if policy.feasible else 1


def _cmd_deploy(args: argparse.Namespace) -> int:
    spec = mobilenet_v1_spec(args.resolution, args.width)
    device = _resolve_device(args)
    method = QuantMethod(args.method)
    policy: Optional[QuantPolicy] = None
    if args.policy:
        with open(args.policy) as fh:
            policy = QuantPolicy.from_json(fh.read())
    report = deploy(spec, device, method=method, policy=policy, strict=False)
    print(report.summary())
    top1 = AccuracyModel().predict_top1(spec, report.policy)
    print(f"  predicted Top-1  : {top1:6.2f} %")
    if args.save_artifact:
        session = pipeline(
            spec, policy=report.policy,
            device=device if report.fits else None, seed=args.seed,
        )
        out = session.save(args.save_artifact)
        print(f"  session artifact : {out} "
              f"(load with `repro-mcu run {out}`)")
    return 0 if report.fits else 1


def _fault_spec(text: str) -> str:
    """argparse type for --inject: validate early so a typo dies as a
    usage error instead of a traceback after the artifact loads."""
    from repro.serving import FaultInjector

    try:
        FaultInjector.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return text


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serving import (
        FaultInjector,
        ModelRegistry,
        ServerOptions,
        serve,
    )

    if (args.artifact is None) == (args.fleet is None):
        print("error: serve needs exactly one of an artifact path or "
              "--fleet DIR", file=sys.stderr)
        return 2
    session = registry = None
    default_model = None
    if args.fleet is not None:
        budget = (args.memory_budget_kb * 1024
                  if args.memory_budget_kb is not None else None)
        registry = ModelRegistry.from_directory(
            args.fleet, memory_budget_bytes=budget
        )
        default_model = args.default_model
        if default_model is not None and default_model not in registry:
            print(f"error: --default-model {default_model!r} is not in the "
                  f"fleet {registry.models}", file=sys.stderr)
            return 2
    else:
        session = Session.load(args.artifact)
    faults = None
    if args.inject:
        faults = FaultInjector.parse(args.inject, seed=args.fault_seed)
    options = ServerOptions(
        host=args.host, port=args.port,
        max_batch=args.max_batch, max_wait_ms=args.max_wait_ms,
        queue_depth=args.queue_depth,
        default_deadline_ms=args.deadline_ms,
        batch_timeout_s=args.batch_timeout,
        retries=args.retries,
        circuit_threshold=args.circuit_threshold,
        circuit_reset_s=args.circuit_reset,
        workers=args.workers,
    )
    serve(session, options, faults=faults, ttl_s=args.ttl,
          registry=registry, default_model=default_model)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    session = Session.load(args.artifact)
    plan = session.plan
    if args.input:
        x = np.load(args.input)
        if x.ndim != 4:
            print(f"error: {args.input} must hold an NCHW batch, "
                  f"got shape {x.shape}", file=sys.stderr)
            return 2
    else:
        hw = None
        if args.resolution is not None:
            hw = (args.resolution, args.resolution)
        elif session.input_hw is None:
            hw = (32, 32)  # artifact carries no geometry; pick a small default
        x = session.synthetic_batch(args.batch, rng_seed=args.seed, input_hw=hw)
    print(session.describe(input_hw=(x.shape[2], x.shape[3]),
                           batch_size=x.shape[0]))
    t0 = time.perf_counter()
    preds = session.predict(x)
    elapsed = time.perf_counter() - t0
    print(f"\nran {x.shape[0]} image(s) at {x.shape[2]}x{x.shape[3]} "
          f"in {elapsed * 1e3:.1f} ms "
          f"({x.shape[0] / elapsed:.1f} imgs/sec)")
    print(f"predictions: {preds.tolist()}")
    if args.profile:
        print()
        print(session.profile(x, repeats=args.repeats).table())
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.analysis import PlanVerificationError, lint_package, verify_artifact

    if args.artifact is None and not args.self_lint:
        print("error: check needs an artifact path and/or --self",
              file=sys.stderr)
        return 2
    rc = 0
    if args.artifact is not None:
        hw = None
        if args.resolution is not None:
            hw = (args.resolution, args.resolution)
        try:
            report = verify_artifact(args.artifact, hw)
        except PlanVerificationError as exc:
            for v in exc.violations:
                print(str(v), file=sys.stderr)
            print(f"{args.artifact}: FAILED static verification "
                  f"({len(exc.violations)} violation(s))", file=sys.stderr)
            rc = 1
        else:
            print(f"{args.artifact}: {report.summary()}")
    if args.self_lint:
        violations = lint_package()
        for v in violations:
            print(str(v), file=sys.stderr)
        if violations:
            print(f"repo lint: {len(violations)} violation(s)", file=sys.stderr)
            rc = 1
        else:
            print("repo lint: clean")
    return rc


def _cmd_sweep(args: argparse.Namespace) -> int:
    device = _resolve_device(args)
    fig = experiments.figure2(device=device)
    # Map the CLI method names onto the Figure-2 strategy labels; any other
    # value (or --all-methods) shows both strategies.
    method_to_label = {"PC+ICN": "MixQ-PC-ICN", "PL+ICN": "MixQ-PL"}
    wanted = method_to_label.get(args.method)
    rows = []
    for p in sorted(fig["points"], key=lambda p: p.cycles):
        if wanted is not None and p.method != wanted:
            continue
        rows.append([p.label, p.method, round(p.top1, 2), round(p.fps, 2),
                     round(p.ro_bytes / MB, 2), "yes" if p.feasible else "no"])
    print(render_table(
        ["Config", "Method", "Top-1 (%)", "fps", "Flash (MB)", "fits"], rows,
        title=f"MobileNetV1 family on {device.name}"))
    print("\nPareto frontier:")
    for p in fig["pareto"]:
        print(f"  {p.label:<26s} {p.top1:5.1f} %  {p.latency_cycles / 1e6:8.1f} Mcycles")
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    name = args.name
    if name == "table1":
        result = experiments.table1()
        rows = [[m, r["counts"]["Zw"], r["counts"]["Bq"], r["counts"]["M0"],
                 r["counts"]["Thr"], r["layer_extra_bytes"]]
                for m, r in result["rows"].items()]
        print(render_table(["Method", "Zw", "Bq", "M0", "Thr", "extra bytes"], rows,
                           title=f"Table 1 ({result['layer']})"))
    elif name == "table2":
        rows = [[r.label, paper_data.TABLE2.get(r.label, {}).get("top1", "-"),
                 round(r.top1, 2), round(r.weight_mb, 2)] for r in experiments.table2()]
        print(render_table(["Strategy", "paper Top-1", "repro Top-1", "mem (MB)"], rows,
                           title="Table 2"))
    elif name == "table3":
        rows = [[r.label, r.method, round(r.top1, 2), round(r.ro_mb, 2)]
                for r in experiments.table3()]
        print(render_table(["Model", "Method", "Top-1", "RO (MB)"], rows, title="Table 3"))
    elif name == "table4":
        result = experiments.table4()
        rows = [[label, *paper_data.TABLE4[label], round(pl, 2), round(pc, 2)]
                for label, (pl, pc) in result.items()]
        print(render_table(
            ["Config", "paper PL", "paper PC", "repro PL", "repro PC"], rows, title="Table 4"))
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(name)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro-mcu", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_search = sub.add_parser("search", help="memory-driven mixed-precision search")
    _add_network_args(p_search)
    _add_device_args(p_search)
    p_search.add_argument("--output", help="write the policy as JSON to this path")
    p_search.set_defaults(func=_cmd_search)

    p_deploy = sub.add_parser("deploy", help="deployment report for one configuration")
    _add_network_args(p_deploy)
    _add_device_args(p_deploy)
    p_deploy.add_argument("--policy", help="use a previously saved policy JSON")
    p_deploy.add_argument("--save-artifact", metavar="PATH",
                          help="materialise the deployment as a servable "
                               "session artifact at PATH")
    p_deploy.add_argument("--seed", type=int, default=0,
                          help="seed for the synthetic weight materialisation")
    p_deploy.set_defaults(func=_cmd_deploy)

    p_run = sub.add_parser("run", help="load and serve a saved session artifact")
    p_run.add_argument("artifact", help="artifact directory written by "
                                        "Session.save / deploy --save-artifact")
    p_run.add_argument("--input", help=".npy file with an NCHW image batch "
                                       "(default: synthetic random batch)")
    p_run.add_argument("--batch", type=int, default=1,
                       help="synthetic batch size (default: 1)")
    p_run.add_argument("--resolution", type=int, default=None,
                       help="synthetic input resolution (default: the "
                            "artifact's arena geometry)")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--profile", action="store_true",
                       help="print the per-layer latency breakdown")
    p_run.add_argument("--repeats", type=int, default=3,
                       help="best-of repeats for --profile timings")
    p_run.set_defaults(func=_cmd_run)

    p_serve = sub.add_parser(
        "serve", help="serve an artifact over the fault-tolerant "
                      "micro-batching HTTP front end")
    p_serve.add_argument("artifact", nargs="?", default=None,
                         help="artifact directory written by "
                                          "Session.save / deploy --save-artifact")
    p_serve.add_argument("--fleet", metavar="DIR", default=None,
                         help="serve every artifact under DIR as a "
                              "multi-model fleet (requests route by their "
                              "'model' field; mutually exclusive with the "
                              "positional artifact)")
    p_serve.add_argument("--memory-budget-kb", type=int, default=None,
                         help="fleet residency budget in KiB (weights + "
                              "Eq. 7 arena peak per resident model; "
                              "least-recently-used idle models are evicted "
                              "to fit; default: unlimited)")
    p_serve.add_argument("--default-model", default=None,
                         help="fleet model used when a request omits "
                              "'model' (also warmed at startup)")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8707,
                         help="TCP port (0 = ephemeral; default: 8707)")
    p_serve.add_argument("--max-batch", type=int, default=8,
                         help="micro-batch tile size (default: 8)")
    p_serve.add_argument("--max-wait-ms", type=float, default=5.0,
                         help="partial-tile flush timeout (default: 5 ms)")
    p_serve.add_argument("--queue-depth", type=int, default=64,
                         help="admission queue bound; beyond it requests "
                              "are shed with a 503 (default: 64)")
    p_serve.add_argument("--deadline-ms", type=float, default=1000.0,
                         help="default per-request deadline; expired requests "
                              "are dropped before batching (default: 1000)")
    p_serve.add_argument("--batch-timeout", type=float, default=30.0,
                         help="hung-batch watchdog, seconds (default: 30)")
    p_serve.add_argument("--retries", type=int, default=2,
                         help="retries per tile on transient faults, worker "
                              "crashes included (default: 2)")
    p_serve.add_argument("--circuit-threshold", type=int, default=5,
                         help="consecutive batch failures that open the "
                              "circuit breaker (default: 5)")
    p_serve.add_argument("--circuit-reset", type=float, default=2.0,
                         help="seconds before a half-open probe (default: 2)")
    p_serve.add_argument("--workers", type=int, default=1,
                         help="worker processes sharing one mmap'd copy of "
                              "the weights (default: 1 = in-process)")
    p_serve.add_argument("--inject", metavar="SPEC", type=_fault_spec,
                         help="deterministic fault injection, e.g. "
                              "'kernel:every=7;slow:every=5,delay=0.05'")
    p_serve.add_argument("--fault-seed", type=int, default=0)
    p_serve.add_argument("--ttl", type=float, default=None,
                         help="serve for TTL seconds then shut down cleanly "
                              "(default: until Ctrl-C)")
    p_serve.set_defaults(func=_cmd_serve)

    p_check = sub.add_parser(
        "check", help="statically verify an artifact's compiled plan "
                      "and/or lint the repo (no inference is executed)")
    p_check.add_argument("artifact", nargs="?", default=None,
                         help="artifact directory to verify: accumulator "
                              "bounds vs. dispatched backend, container "
                              "dtypes, requant shifts, arena slab "
                              "lifetime/aliasing")
    p_check.add_argument("--self", dest="self_lint", action="store_true",
                         help="run the AST repo lint over the installed "
                              "repro package")
    p_check.add_argument("--resolution", type=int, default=None,
                         help="geometry for the slab-lifetime walk "
                              "(default: the artifact's arena geometry)")
    p_check.set_defaults(func=_cmd_check)

    p_sweep = sub.add_parser("sweep", help="Figure-2 style sweep of the whole family")
    _add_device_args(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)
    p_sweep.add_argument("--all-methods", dest="method", action="store_const", const="all",
                         help="show both MixQ-PL and MixQ-PC-ICN points")

    p_table = sub.add_parser("table", help="regenerate one of the paper's tables")
    p_table.add_argument("name", choices=["table1", "table2", "table3", "table4"])
    p_table.set_defaults(func=_cmd_table)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ArtifactError, FileNotFoundError, IsADirectoryError,
            PermissionError) as exc:
        # Operational errors (missing/corrupt artifacts, unreadable
        # inputs) are a one-liner for the operator, not a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
