"""``repro serve`` with the layer wrappers installed (the traced serve-rw run).

Usage: ``python3 perfbench/launcher.py TOTALS_JSON serve -m M -d D ...``

Installs :func:`~perfbench.tracing.install_engine_layers` and
:func:`~perfbench.tracing.install_serve_layers`, then runs the CLI's
``serve`` command, whose ``run_serve`` parks until SIGTERM.  A line
``mark`` on stdin snapshots the totals (the load generator sends it when
set-up and warm-up are over; ``% marked`` acknowledges it).  After
SIGTERM the totals — the snapshot and the final ones — go to TOTALS_JSON.
"""

from __future__ import annotations

import json
import sys
import threading
from pathlib import Path


def main(argv: list[str]) -> int:
    from repro.cli import main as cli_main

    from perfbench.tracing import (
        LayerTracer,
        install_engine_layers,
        install_serve_layers,
    )

    totals_path, cli_argv = Path(argv[0]), argv[1:]
    tracer = LayerTracer()
    install_engine_layers(tracer)
    install_serve_layers(tracer)
    marks: dict[str, dict] = {}

    def control() -> None:
        for line in sys.stdin:
            if line.strip() == "mark":
                marks["startup"] = tracer.snapshot()
                print("% marked", flush=True)

    threading.Thread(target=control, name="perfbench-control", daemon=True).start()
    code = cli_main(cli_argv)
    totals_path.write_text(
        json.dumps({"startup": marks.get("startup"), "final": tracer.snapshot()})
    )
    return code


if __name__ == "__main__":
    root = Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(root / "src"), str(root)]
    sys.exit(main(sys.argv[1:]))
