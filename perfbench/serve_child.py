"""Start the server the way ``repro-mcu serve ARTIFACT`` starts it.

``run.py`` launches this file in its own process (BLAS on one thread,
``src`` on the import path).  It calls the CLI entry point with the
artifact and the CLI's defaults — only the port is set, to 0, so the
kernel picks a free one and the server announces it on stdout.  Before
the server starts it installs the benchmark's wrappers: with
``--spans`` the full server trace (:func:`perfbench.spans.install_server`),
otherwise only the two set-up stamps, ``load_artifact`` entry and the
startup ``Session.healthcheck`` return, which are called once.

``run.py`` stops the server with SIGINT; the CLI then shuts down
cleanly and returns.  Only after that — so they cannot raise the
server's peak RSS — the remaining set-up samples run (``Session.load``
to ``healthcheck`` returned), and the state file is written.  Three
calibration samples precede every set-up, the server's own included.

Usage (``run.py`` is the normal caller)::

    PYTHONPATH=src python3 -u -m perfbench.serve_child ARTIFACT \
        --out state.json [--spans spans.json]
"""

from __future__ import annotations

import argparse
import gc
import json
import sys

from perfbench.host import blas_info, vm_hwm_kb
from perfbench.measure import Calibrator, own_other_threads_cpu_ns
from perfbench.spans import Tracer, install_server

#: Set-ups per run (the server's own startup is the first); ``setup_s``
#: is their median.
SETUP_REPS = 15
#: Calibration samples before each set-up.
SETUP_CAL = 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("artifact")
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", help="trace the server and write its spans here")
    args = parser.parse_args(argv)

    import repro.runtime.session as session_mod
    from repro.cli import main as cli_main
    from repro.runtime import Session

    tracer = Tracer()
    if args.spans:
        install_server(tracer)
    else:
        tracer.wrap(session_mod, "load_artifact", "setup.load")
        tracer.wrap(Session, "healthcheck", "setup.healthcheck")

    setup_cal = Calibrator([own_other_threads_cpu_ns])

    def calibrate():
        gc.collect()
        for _ in range(SETUP_CAL):
            setup_cal.sample()

    calibrate()
    rc = cli_main(["serve", args.artifact, "--port", "0"])
    rss_kb = vm_hwm_kb()
    health = []
    for _ in range(SETUP_REPS - 1):
        calibrate()
        with Session.load(args.artifact) as session:
            health.append(session.healthcheck()["ok"])
    tracer.uninstall()

    starts = [s.start for s in tracer.spans if s.name == "setup.load"]
    ends = [s.end for s in tracer.spans if s.name == "setup.healthcheck"]
    if args.spans:
        tracer.dump(args.spans)
    with open(args.out, "w") as fh:
        json.dump({
            "rc": rc,
            "rss_kb": rss_kb,
            "setup_intervals": list(zip(starts, ends)),
            "setup_calibration": setup_cal.samples,
            "probe_health": health,
            "blas": blas_info(),
            "trace_missing": tracer.missing,
        }, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
