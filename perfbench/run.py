"""Benchmark entry point for lvr.

Usage, from the repository root:

    python3 perfbench/run.py --workload gen-bpe --seed 0 --seconds 20 --trace 0

Generates the workload's inputs from ``--seed``, builds the toolkit from
``src/`` and runs it in this one process, single-threaded.

``--trace 0`` makes passes over the workload's fixed jobs while another
pass fits in ``--seconds`` (at least one), and reports the end-to-end
metrics of ``BENCHMARK.json``: counts from the first pass, which every later
pass must reproduce, and times as the median over passes of each step, in
seconds scaled to a fixed machine speed (see ``clock.py``).  ``--trace 1``
runs the workload's fixed number of trace jobs twice, untraced and then
traced, in raw wall time, and reports the per-layer metrics plus the
tracing overhead; a fixed job count makes every counter repeat exactly for
one seed.  Spans go to ``.bench_out/``.

The next-to-last line of standard output is a JSON report (workload-only
metrics, wall and scaled seconds, failures with their step, a digest of
job 0's outputs); the last line is the result object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0 when a result was printed, 2 when the toolkit sources or
``BENCHMARK.json`` are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]
# one thread: set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import clock  # noqa: E402  (needs HERE on sys.path and the variables above)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_job(wl, data, tally, quiet_setup=contextlib.nullcontext) -> None:
    """Build fresh objects and run the next job with the cyclic garbage
    collector off; it collects between jobs, outside every timed region."""
    job = tally.jobs
    gc.collect()
    gc.disable()
    try:
        with quiet_setup():
            timer = clock.Clock()
            objs = wl.setup(data, job)
            tally.setup.append(timer.lap())
        wl.job(data, objs, job, tally)
    finally:
        gc.enable()
    tally.jobs += 1


def _measure(wl, data, seed: int, seconds: float):
    """Set up ``setup_repeats`` times, cycling through the jobs, then make
    passes over the workload's ``jobs`` jobs while another pass fits in
    ``seconds`` (at least one).  Every pass repeats the same jobs, so the
    run's counts are the first pass's, the later passes must reproduce its
    outcomes, and each timed unit is the median of its passes."""
    from workloads import Tally, combine

    setup = []
    for n in range(wl.setup_repeats):
        gc.collect()
        timer = clock.Clock()
        wl.setup(data, n % wl.jobs)
        setup.append(timer.lap())
    passes = []
    start = time.perf_counter()
    while True:
        tally = Tally(wl.name, seed)
        for _ in range(wl.jobs):
            _run_job(wl, data, tally)
        passes.append(tally)
        elapsed = time.perf_counter() - start
        if elapsed / len(passes) * (len(passes) + 1) > seconds:
            break
    best = combine(passes)
    best.setup[:0] = setup
    best.extra["passes"] = len(passes)
    return best


def _trace(wl, data, untraced, traced, tracer) -> None:
    """The fixed trace jobs, untraced and then traced (set-up untraced)."""
    for _ in range(wl.trace_jobs):
        _run_job(wl, data, untraced)
    tracer.install()
    try:
        for job in range(wl.trace_jobs):
            tracer.output_id = job
            _run_job(wl, data, traced, tracer.paused)
    finally:
        tracer.uninstall()


def _report(tally) -> dict:
    from workloads import rate

    x = tally.extra
    outs = tally.outputs
    report = {
        "workload": tally.workload,
        "seed": tally.seed,
        "jobs": tally.jobs,
        "passes": x.get("passes", 1),
        **clock.totals,
        "digest": tally.digest,
        "fail_rate": tally.failed / tally.attempted,
        "step_samples": sum(len(o.gaps) for o in outs),
        "cold_steps": sum(o.cold_steps for o in outs),
        "warm_steps": sum(o.warm_steps for o in outs),
        "failures": tally.failures,
        "problems": tally.problems[:20],
    }
    if "texts" in x:
        report["verify_texts_per_s"] = x["texts"] / sum(sum(o.cold) for o in outs)
    if "byte_level_bytes" in x:
        report["byte_level_bytes_per_s"] = rate(
            [o for o in outs if not o.counts_bytes], "bytes")
    if x.get("topk_steps"):
        report["dropped_mass_per_subtok"] = x["topk_dropped"] / x["topk_steps"]
    return report


def _layer_extras(tally) -> dict[str, float]:
    """Per-layer figures the tally holds rather than the spans."""
    x = tally.extra
    ratio = 0.0
    if x.get("mcv_steps") and x.get("byte_level_steps") and x.get("byte_level_bytes"):
        ratio = (x["mcv_bytes"] / x["mcv_steps"]) / (
            x["byte_level_bytes"] / x["byte_level_steps"])
    return {
        "mcv.vocab_size": x.get("mcv_vocab_size", 0),
        "mcv.bytes_per_step_ratio": ratio,
        "oracle.budget_used": x.get("budget_used", 0),
        "oracle.max_discrepancy": x.get("max_discrepancy", 0.0),
    }


def main(argv=None) -> int:
    manifest_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "lvr" / "__init__.py").is_file() or not manifest_path.is_file():
        print("error: run from a checkout that has src/lvr and BENCHMARK.json",
              file=sys.stderr)
        return 2
    manifest = json.loads(manifest_path.read_text())
    names = [w["name"] for w in manifest["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import workloads
    from spans import Tracer

    wl = workloads.WORKLOADS[args.workload]
    data = wl.prepare(args.seed)
    if args.trace:
        clock.calibrated = False
        tally = workloads.Tally(wl.name, args.seed)
        untraced = workloads.Tally(wl.name, args.seed)
        tracer = Tracer()
        _trace(wl, data, untraced, tally, tracer)
        values = tracer.layer_metrics()
        values.update(_layer_extras(tally))
        values["trace.overhead_pct"] = (tally.measured_s() / untraced.measured_s() - 1) * 100
        problems = untraced.problems + tally.problems
        tracer.write(ROOT / ".bench_out" / f"spans-{wl.name}-seed{args.seed}.jsonl")
        wanted = manifest["per_layer"]
    else:
        tally = _measure(wl, data, args.seed, args.seconds)
        values = workloads.end_to_end(tally, _peak_rss_mb())
        problems = tally.problems
        wanted = manifest["end_to_end"]

    print(json.dumps({"report": _report(tally)}))
    result = {
        "correct": not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
