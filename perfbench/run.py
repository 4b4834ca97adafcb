"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its
``src/``.  The workload's inputs are generated from ``--seed``
(:mod:`perfbench.workloads`), the answers' digests are looked up in
``perfbench/digests.json`` or, for a seed not recorded there, computed
before anything is timed, and then:

- ``setup_s`` is timed ``SETUP_REPEATS`` times in fresh interpreters;
- throughout, a sampler process times the host's speed
  (:mod:`perfbench.hostspeed`), and end-to-end times are reported scaled
  to its reference speed;
- ``tpch-sf1`` runs batch passes, each in a fresh worker process
  (:mod:`perfbench.batch`), until the next would overrun ``--seconds``;
- ``serve-rw`` drives a ``repro serve`` subprocess
  (:mod:`perfbench.serve_load`).

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones (:mod:`perfbench.spec`).  The full report, with every sample count,
quartile and ratio base, goes to ``.perfbench/`` in the checkout; the last
line of standard output is the one-line summary.  The exit code is 1 when
an answer does not match its digest or an operation fails, and 2 when the
checkout holds no program to measure.

All of a run's processes share one core, the last this process may use.
Every interpreter runs with ``PYTHONHASHSEED`` pinned: this process
re-executes itself with ``0`` and passes that on, except to batch workers,
which get one derived from the seed and the pass number.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 11
MIN_PASSES = 2
SETUP_CODE = (
    "import sys, repro\n"
    "with open(sys.argv[1]) as handle:\n"
    "    repro.reduce_mapping(repro.parse_mapping(handle.read()))\n"
)


def _arguments(argv):
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _environment() -> dict:
    return {
        **os.environ,
        "PYTHONHASHSEED": "0",
        "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
    }


def _setup_seconds(work: Path, env: dict) -> list[float]:
    samples = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(work / "mapping.txt")],
            cwd=ROOT, env=env, check=True,
        )
        samples.append(time.perf_counter() - started)
    return samples


def _hash_seed(workload: str, seed: int, number: int) -> str:
    digest = hashlib.sha256(f"hashseed:{workload}:{seed}:{number}".encode())
    return str(int.from_bytes(digest.digest()[:4], "big"))


def _run_batch(work: Path, env: dict, arguments) -> list[dict]:
    """Worker passes until the next would overrun the window, and at
    least ``MIN_PASSES``, so a traced run has an untraced base.

    With ``--trace 1`` the first pass runs untraced (the overhead base)
    and the second, traced, reuses its hash seed; later passes are traced.
    """
    passes: list[dict] = []
    deadline = time.perf_counter() + arguments.seconds
    while True:
        number = len(passes)
        traced = bool(arguments.trace) and number > 0
        job = {
            "inputs": str(work / "inputs.json"),
            "trace": traced,
            "out": str(work / f"pass-{number}.json"),
        }
        (work / "job.json").write_text(json.dumps(job))
        hash_number = 0 if traced and number == 1 else number
        subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "batch.py"),
             str(work / "job.json")],
            cwd=ROOT, check=True,
            env={**env, "PYTHONHASHSEED": _hash_seed(
                arguments.workload, arguments.seed, hash_number)},
        )
        passes.append(json.loads(Path(job["out"]).read_text()))
        longest = max(p["e2e_s"] for p in passes)
        if (
            len(passes) >= MIN_PASSES
            and time.perf_counter() + longest > deadline
        ):
            return passes


def main(argv: list[str]) -> int:
    arguments = _arguments(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, __file__, *argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    # SIGTERM unwinds, so the server, the sampler and workers are stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # Every process of the run shares one core, so the host-speed sampler
    # times the core the work runs on: a shared host's cores slow down
    # independently (unpinned, one pass took 1.5 s or 1.9 s depending on
    # the core it landed on).  The measured work is single-threaded.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    from perfbench import digests, metrics, serve_load, spec
    from perfbench.hostspeed import HostSpeed, factor
    from perfbench.report import SCHEMA, dumps, stamp, validate
    from perfbench.workloads import WORKLOADS, generate

    if arguments.workload not in WORKLOADS:
        print(f"unknown workload {arguments.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    env = _environment()
    work = ROOT / ".perfbench" / (
        f"{arguments.workload}-seed{arguments.seed}-trace{arguments.trace}"
    )
    work.mkdir(parents=True, exist_ok=True)
    inputs = generate(arguments.workload, arguments.seed)
    (work / "inputs.json").write_text(inputs.to_json())
    serve_load.write_inputs(work, inputs)
    expected = digests.recorded(inputs)
    digest_source = "recorded"
    if expected is None:
        expected = digests.compute(inputs)
        digest_source = "computed"

    # Each end-to-end time is scaled by the host's speed in its phase:
    # set-up; start-up (server spawns and warm-ups, or batch passes); load
    # (the open loop, or again the batch passes).
    speed = HostSpeed(work / "hostspeed.txt")
    try:
        started = time.monotonic()
        setup = _setup_seconds(work, env)
        windows = {"setup": (started, time.monotonic())}
        if arguments.workload == "serve-rw":
            phases = serve_load.run(
                ROOT, work, inputs, expected, arguments.seconds, arguments.trace, env
            )
            windows.update(phases[0]["windows"])
        else:
            started = time.monotonic()
            passes = _run_batch(work, env, arguments)
            windows["start"] = windows["load"] = (started, time.monotonic())
    finally:
        samples = speed.stop()
    host_speed = {name: factor(samples, *window) for name, window in windows.items()}
    scale = {name: entry["factor"] for name, entry in host_speed.items()}
    if arguments.workload == "serve-rw":
        (work / "serve-phases.json").write_text(json.dumps(phases))
        outcome = metrics.serve(arguments, setup, phases, scale)
    else:
        outcome = metrics.batch(arguments, setup, passes, expected, scale)
    report, correct, attempted, failed = outcome

    names = [m.name for m in (spec.PER_LAYER if arguments.trace else spec.END_TO_END)]
    for metric in spec.END_TO_END + spec.REPORT_ONLY:
        report.metrics[metric.name]["means"] = metric.means
    for metric in spec.PER_LAYER:
        if metric.name in report.metrics:
            report.metrics[metric.name]["moves"] = metric.moves
    document = {
        "schema": SCHEMA,
        "workload": arguments.workload,
        "why": next(w.why for w in spec.WORKLOADS if w.name == arguments.workload),
        "seed": arguments.seed,
        "trace": arguments.trace,
        "seconds": arguments.seconds,
        "stamp": stamp(ROOT, arguments.seed),
        "generator_seed": inputs.generator_seed,
        "inputs_sha256": inputs.sha256(),
        "digests": digest_source,
        "host_speed": host_speed,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted if attempted else None,
        "metrics": report.metrics,
        "accounting": report.accounting,
        "summary": report.summary_line(correct, attempted, failed, names),
    }
    problems = validate(document, spec.END_TO_END, spec.PER_LAYER)
    if problems:
        raise RuntimeError(f"report does not match its schema: {problems}")
    report_path = work / "report.json"
    report_path.write_text(dumps(document) + "\n")
    if arguments.trace and not report.accounting["ok"]:
        print(f"warning: layer self times miss the traced end-to-end time by "
              f"{report.accounting['unattributed_share']:.1%}, more than "
              f"{report.accounting['tolerance']:.0%}", file=sys.stderr)
    for name in names:
        entry = report.metrics[name]
        value = entry["value"]
        shown = "null" if value is None else f"{value:.6g}"
        print(f"{name:32} {shown:>12} {entry['unit']:6} n={entry['n']}",
              file=sys.stderr)
    print(f"% report: {report_path.relative_to(ROOT)}")
    print(dumps(document["summary"]))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

