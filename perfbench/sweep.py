"""Run the benchmark over several seeds and summarize the spread.

    python3 perfbench/sweep.py --workloads gen-bpe,binary-long --seeds 0-9
    python3 perfbench/sweep.py --trace --seeds 0-1 --repeat
    python3 perfbench/sweep.py --seeds 0-9 --out .bench_out/sweep.json

Runs ``run.py`` once per (workload, seed), one after another, and prints,
for every metric of every workload, the median, the quartiles and their
distance as a share of the median (``statistics.quantiles(n=4)``), flagging
end-to-end spreads above a third of the metric's bound.  ``--repeat`` runs
each seed twice and checks that job 0's digest and every counter (metrics
whose unit is not a time) agree exactly.  ``--out`` writes all figures as
JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIME_UNITS = {"s", "ms", "%"}


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def _run(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def _record(seed: int, report: dict, result: dict) -> dict:
    """One run as kept in ``--out``: its metrics, counts, digest, the
    workload-only figures and its first three failures."""
    extras = {k: v for k, v in report.items() if k.endswith("_per_s") or k.endswith("_per_subtok")}
    return {"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "fail_rate": report["fail_rate"],
            "jobs": report["jobs"], "digest": report["digest"], **extras,
            "first_failures": report["failures"][:3],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def _summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in manifest["workloads"]))
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=int, default=manifest["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--repeat", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    units = {m["name"]: m["unit"] for m in manifest["end_to_end"] + manifest["per_layer"]}

    results: dict = {}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            report, result = _run(workload, seed, args.seconds, args.trace)
            runs.append(_record(seed, report, result))
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"jobs={report['jobs']} digest={report['digest']}", flush=True)
            if not result["correct"]:
                ok = False
            if args.repeat:
                report2, result2 = _run(workload, seed, args.seconds, args.trace)
                diffs = [k for k, v in result["metrics"].items()
                         if units[k] not in TIME_UNITS and v != result2["metrics"][k]]
                if report2["digest"] != report["digest"]:
                    diffs.append("digest")
                print(f"  repeat: {'same' if not diffs else 'DIFFERS: ' + ', '.join(diffs)}")
                ok = ok and not diffs
        metrics = {}
        for name in runs[0]["metrics"]:
            s = _summary([r["metrics"][name] for r in runs])
            metrics[name] = s
            flag = ""
            if name in bounds and s["spread"] > bounds[name] / 3:
                flag = f"  > bound/3 ({bounds[name] / 3:.3f})"
            print(f"  {name:42s} median {s['median']:<12.6g} "
                  f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} spread {s['spread']:.3f}{flag}")
        fails = [r["fail_rate"] for r in runs]
        print(f"  fail_rate per seed: {[round(f, 3) for f in fails]}")
        results[workload] = {"metrics": metrics, "runs": runs}
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(results, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
