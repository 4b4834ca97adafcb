"""The batch worker: one timed pass over a workload's inputs.

``python3 perfbench/batch.py JOB.json`` — :mod:`perfbench.run` starts one
worker per pass, so every pass runs in a fresh interpreter, as a user's
``repro answer`` does, and its peak RSS is the pipeline's own.  Each
worker gets its own ``PYTHONHASHSEED``, derived from the run seed and the
pass number: set iteration order steers the solver's search, which moves
solve time by up to about ±15% (measured on the genomics suite), so
passes with different hash seeds average that luck out instead of
repeating one draw.

A pass parses the instance, exchanges it on a new default engine
(``ready``), answers every query once (``pipeline``), then, outside the
pipeline time, retracts and re-inserts each pool fact through the
engine's update session.  ``gc.collect()`` runs before it, with GC left
on.  With ``"trace": true`` in the job, the layer wrappers of
:mod:`perfbench.tracing` are installed first.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

clock = time.perf_counter


def run_pass(inputs, reduced, tracer=None) -> dict:
    import repro.parser as parser
    from repro.incremental.delta import parse_update_stream
    from repro.xr.segmentary import SegmentaryEngine

    from perfbench.digests import rows_digest

    deltas = []
    for fact in inputs.pool:
        deltas += parse_update_stream(f"-{fact}\n\n+{fact}\n")
    gc.collect()
    root = tracer.enter("bench") if tracer else None
    started = clock()
    engine = SegmentaryEngine(reduced, parser.parse_instance(inputs.data))
    engine.exchange()
    ready = clock()
    answers, latencies = {}, []
    for name, text in inputs.queries:
        for mode in inputs.modes:
            asked = clock()
            rows, _stats = engine.answer_with_stats(
                parser.parse_program(text), mode=mode
            )
            latencies.append(clock() - asked)
            answers[f"{mode}/{name}"] = rows
    done = clock()
    session = engine.update_session()
    updates = []
    for delta in deltas:
        applied = clock()
        session.apply(delta)
        updates.append(clock() - applied)
    finished = clock()
    if tracer:
        tracer.exit(root)
    engine.close()
    return {
        "ready_s": ready - started,
        "pipeline_s": done - started,
        "query_s": latencies,
        "update_s": updates,
        "e2e_s": finished - started,
        "digests": {key: rows_digest(rows) for key, rows in answers.items()},
        "cache": vars(engine.cache.stats).copy(),
    }


def run(job: dict) -> dict:
    import repro.parser as parser
    import repro.reduction as reduction

    from perfbench.tracing import LayerTracer, install_engine_layers
    from perfbench.workloads import Inputs

    inputs = Inputs.from_json(Path(job["inputs"]).read_text())
    tracer = None
    if job["trace"]:
        tracer = LayerTracer()
        install_engine_layers(tracer)
    with tracer.span("bench.setup") if tracer else nullcontext():
        reduced = reduction.reduce_mapping(parser.parse_mapping(inputs.mapping))
    result = {"traced": bool(tracer)}
    if tracer:
        before = result["setup_layers"] = tracer.snapshot()
    result.update(run_pass(inputs, reduced, tracer))
    if tracer:
        after = tracer.snapshot()
        result["layers"] = {
            part: {k: v - before[part].get(k, 0) for k, v in after[part].items()}
            for part in after
        }
        tracer.uninstall()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return result


if __name__ == "__main__":
    root = Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(root / "src"), str(root)]
    job = json.loads(Path(sys.argv[1]).read_text())
    Path(job["out"]).write_text(json.dumps(run(job)))
