"""Check the benchmark is steady: run one workload over several seeds.

    python3 perfbench/spread.py --workload tpch-sf1 --seeds 1-10

Runs ``perfbench/run.py`` once per seed, one after another, then prints
each end-to-end metric's median over the seeds and its spread: the
distance between the first and third quartile (``statistics.quantiles(n=4)``)
as a share of the median, next to a third of the metric's bound and the
bound itself, and the spread of the raw times (before host-speed scaling,
see :mod:`perfbench.hostspeed`).  ``--out`` keeps the per-seed summary
lines as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE.parent))
    from perfbench.digests import seed_range
    from perfbench.spec import END_TO_END, RUN_SECONDS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--out", type=Path)
    arguments = parser.parse_args(argv)

    lines, hosts = [], []
    for seed in arguments.seeds:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", arguments.workload,
             "--seed", str(seed), "--seconds", str(arguments.seconds), "--trace", "0"],
            cwd=HERE.parent, capture_output=True, text=True, check=False,
        )
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return done.returncode
        output = done.stdout.strip().splitlines()
        lines.append(json.loads(output[-1]))
        report = HERE.parent / output[-2].removeprefix("% report: ")
        hosts.append(json.loads(report.read_text())["host_speed"])
        print(f"seed {seed}: {json.dumps(lines[-1]['metrics'])}", flush=True)
    if arguments.out:
        arguments.out.write_text(json.dumps(lines, indent=1) + "\n")
    steady = True
    for metric in END_TO_END:
        values = [line["metrics"][metric.name]["value"] for line in lines]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        if metric.phase:
            raw = [value / host[metric.phase]["factor"]
                   for value, host in zip(values, hosts)]
            r1, r2, r3 = statistics.quantiles(raw, n=4)
            raw_spread = f"{(r3 - r1) / r2:6.3f}"
        else:
            raw_spread = "     -"
        verdict = "ok" if spread < metric.bound / 3 else (
            "within bound" if spread <= metric.bound else "TOO WIDE")
        if spread > metric.bound:
            steady = False
        print(f"{metric.name:16} median {median:12.6g} {metric.unit:4} "
              f"spread {spread:6.3f}  raw {raw_spread}  bound/3 "
              f"{metric.bound / 3:.3f}  bound {metric.bound:.3f}  {verdict}")
    for phase in ("setup", "start", "load"):
        print(f"host factor {phase:5} " + " ".join(
            f"{host[phase]['factor']:.3f}" for host in hosts))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
