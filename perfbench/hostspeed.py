"""The host's speed, timed through a run, to scale end-to-end times by.

The benchmark runs on a machine it shares: on a 2-vCPU Xeon guest the
same serve-rw warm-up took 7.1 s in one ten-minute stretch and 12 s in
the next, with CPU time equal to wall time (no steal; the guest's cores
simply ran slower), and every timing of a run moved together.  So while a
run measures, a sampler process on the run's core times a fixed
interpreter-bound kernel — no code of the program under test — every
``PERIOD_S``, in CPU time, so the share of the core that the run's other
processes take does not count.  Each end-to-end time is multiplied by the
factor of the phase it was measured in: ``REFERENCE_S`` over the kernel's
median time during that phase.  The result is seconds at the speed at
which the kernel takes ``REFERENCE_S``.  A change to the program moves its
scaled times as much as its raw ones; a slower or faster stretch of the
host moves the kernel and the workload alike, and cancels out.  Every
report records each phase's factor, so the raw times are the scaled ones
divided by it.

The sampler is ``python3 perfbench/hostspeed.py OUT``: it appends
``<monotonic time> <kernel CPU seconds>`` lines to ``OUT`` and exits when
its standard input closes.
"""

from __future__ import annotations

import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: The kernel's median time on a quiet stretch of the host above.
REFERENCE_S = 0.0125
#: Pause between kernel timings (a kernel takes 10-30 ms).
PERIOD_S = 0.25


def _kernel() -> int:
    # Dict building over tuple keys, a keyed sort and a scan: the kind of
    # work the exchange and query code does, at a 10-20 ms scale.
    table = {}
    for i in range(20_000):
        table[(i % 977, str(i))] = i * 3
    rows = sorted(table.items(), key=lambda item: (item[0][1], item[1]))
    total = 0
    for (key, text), value in rows:
        if key & 1:
            total += len(text) + value
    return total


def factor(samples: list[tuple[float, float]], start: float, end: float) -> dict:
    """The phase ``[start, end]``'s factor from ``(time, seconds)`` kernel
    samples; all samples count when none fell inside the phase."""
    inside = [seconds for at, seconds in samples if start <= at <= end]
    chosen = inside or [seconds for _at, seconds in samples]
    median = statistics.median(chosen)
    return {
        "start": start, "end": end, "n": len(inside),
        "kernel_median_s": median, "factor": REFERENCE_S / median,
    }


class HostSpeed:
    """The sampler process of one run."""

    def __init__(self, out: Path) -> None:
        self.out = out
        out.write_text("")
        self.process = subprocess.Popen(
            [sys.executable, __file__, str(out)], stdin=subprocess.PIPE
        )

    def stop(self) -> list[tuple[float, float]]:
        """Stop the sampler and return its ``(time, seconds)`` samples."""
        if self.process.stdin is not None:
            self.process.stdin.close()
        try:
            self.process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        return [
            (float(at), float(seconds))
            for at, seconds in (line.split() for line in self.out.read_text().splitlines())
        ]


def _sample(out: Path) -> None:
    with open(out, "a") as handle:
        while True:
            started = time.process_time()
            _kernel()
            seconds = time.process_time() - started
            handle.write(f"{time.monotonic()!r} {seconds!r}\n")
            handle.flush()
            readable, _, _ = select.select([sys.stdin], [], [], PERIOD_S)
            if readable and not sys.stdin.buffer.read1(4096):
                return


if __name__ == "__main__":
    _sample(Path(sys.argv[1]))
