"""End-to-end benchmark of the service facade: one request is
``backend.run()`` through ``job.result()``, driven in a closed loop.

A full set — every workload, 3 untraced repetitions each (interleaved),
then one traced repetition per workload for the per-layer numbers::

    PYTHONPATH=src python benchmarks/e2e/run.py --seed 1

One run of one workload, printing a JSON summary as the last line —
end-to-end metrics with ``--trace 0`` (median of 3 repetitions),
per-layer metrics with ``--trace 1`` (one untraced and one traced
repetition, whose difference is the tracing overhead)::

    python3 benchmarks/e2e/run.py --workload vqe_sweep --seed 7 \\
        --seconds 18 --trace 0

Every repetition runs in a fresh process.  ``--seconds`` is the nominal
measured time of one run, split across its repetitions; it fixes each
repetition's request count, so the work done does not depend on speed.
The run exits non-zero when any correctness gate fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from loadgen import WORKLOADS  # noqa: E402
from tracer import PER_LAYER_UNITS  # noqa: E402

#: Untraced repetitions per workload; a set reports their median.
REPS = 3

#: Every end-to-end metric and its unit.
END_TO_END_UNITS: Dict[str, str] = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "programs_per_s": "programs/s",
    "peak_rss_mb": "MB",
    "mean_jsd": "bits",
    "hw_throughput": "fraction",
}

#: A repetition that takes longer than this has hung.
_REP_TIMEOUT_S = 160


class RepetitionError(RuntimeError):
    """A repetition process crashed or timed out."""


def spawn_repetition(name: str, seed: int, requests: int, traced: bool,
                     out: Path) -> Dict[str, object]:
    """One repetition in a fresh process; its parsed result."""
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=out)
    cmd = [sys.executable, str(HERE / "repetition.py"), "--workload", name,
           "--seed", str(seed), "--requests", str(requests),
           "--workdir", workdir]
    if traced:
        cmd += ["--traced", "--spans", str(out / f"spans-{name}.jsonl")]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=_REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RepetitionError(
            f"{name} repetition exceeded {_REP_TIMEOUT_S} s") from None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RepetitionError(
            f"{name} repetition failed (exit {proc.returncode}):\n"
            + proc.stderr[-3000:])
    return json.loads(proc.stdout.splitlines()[-1])


def summarize(name: str, reps: List[Dict[str, object]]
              ) -> Dict[str, object]:
    """A workload's set value per metric, its layers, and its problems."""
    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    metrics = {m: statistics.median(r[m] for r in untraced)
               for m in END_TO_END_UNITS}
    problems = [f"{name}: {p}" for r in reps for p in r["problems"]]
    digests = {r["result_digest"] for r in reps}
    if len(digests) > 1:
        problems.append(f"{name}: repetitions disagree on result_digest "
                        f"({len(digests)} distinct)")
    summary: Dict[str, object] = {
        "metrics": metrics,
        "result_digest": reps[0]["result_digest"],
        "latency_samples": [r["latency_samples"] for r in reps],
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "problems": problems,
        "reps": reps,
    }
    if traced:
        layers = dict(traced[0]["layers"])
        layers["trace.overhead_pct"] = 100.0 * (
            metrics["programs_per_s"] / traced[0]["programs_per_s"] - 1.0)
        summary["layers"] = layers
    return summary


def _table(title: str, units: Dict[str, str],
           columns: Dict[str, Dict[str, float]]) -> None:
    names = list(columns)
    width = max(len(m) for m in units) + 2
    print(f"\n== {title} ==")
    print(f"{'metric':<{width}}{'unit':<15}"
          + "".join(f"{n:>16}" for n in names))
    for metric, unit in units.items():
        print(f"{metric:<{width}}{unit:<15}"
              + "".join(f"{columns[n][metric]:>16.6g}" for n in names))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end service benchmark (see module docstring).")
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="run only this workload (default: a full set)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0,
                        help="nominal measured seconds per workload run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: report per-layer metrics")
    parser.add_argument("--requests", type=int,
                        help="measured requests per repetition "
                             "(overrides --seconds; for smoke tests)")
    parser.add_argument("--out", help="result directory (default: a new "
                        "directory under .bench_e2e/)")
    args = parser.parse_args(argv)

    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
    else:
        (ROOT / ".bench_e2e").mkdir(exist_ok=True)
        out = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".bench_e2e"))
    names = [args.workload] if args.workload else list(WORKLOADS)
    if args.workload:
        plan = ([(args.workload, False), (args.workload, True)]
                if args.trace else [(args.workload, False)] * REPS)
    else:
        plan = ([(n, False) for _ in range(REPS) for n in names]
                + [(n, True) for n in names])
    requests = {n: args.requests
                or WORKLOADS[n].measured_requests(args.seconds / REPS)
                for n in names}

    host = {"cores": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__}
    print(f"host: {host['cores']} cores, Python {host['python']}, "
          f"numpy {host['numpy']}; seed {args.seed}; results in {out}")
    reps: Dict[str, List[Dict[str, object]]] = {n: [] for n in names}
    try:
        for name, traced in plan:
            rep = spawn_repetition(name, args.seed, requests[name],
                                   traced, out)
            reps[name].append(rep)
            print(f"{name:<14} {'traced' if traced else 'untraced':<9}"
                  f"{rep['latency_samples']:>5} requests  "
                  f"p50 {rep['latency_p50_ms']:8.2f} ms  "
                  f"p90 {rep['latency_p90_ms']:8.2f} ms  "
                  f"{rep['programs_per_s']:8.1f} programs/s  "
                  f"setup {rep['setup_s']:.3f} s  "
                  f"probe {rep['probe_ms']:.2f} ms  "
                  f"digest {rep['result_digest'][:12]}", flush=True)
    except RepetitionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    summaries = {n: summarize(n, reps[n]) for n in names}
    problems = [p for s in summaries.values() for p in s["problems"]]
    with open(out / "result.json", "w", encoding="utf-8") as fh:
        json.dump({"host": host, "seed": args.seed,
                   "seconds": args.seconds, "requests": requests,
                   "correct": not problems, "problems": problems,
                   "workloads": summaries}, fh, indent=1)

    if not (args.workload and args.trace):
        _table(f"end to end (median of {REPS} untraced repetitions)",
               END_TO_END_UNITS,
               {n: s["metrics"] for n, s in summaries.items()})
    if any("layers" in s for s in summaries.values()):
        _table("per layer (traced repetition, measured phase)",
               PER_LAYER_UNITS,
               {n: s["layers"] for n, s in summaries.items()})
    print()
    for n, s in summaries.items():
        print(f"{n}: result_digest {s['result_digest']}, latency samples "
              f"per repetition {s['latency_samples']}")
    print("checks: " + ("all passed" if not problems
                        else "FAILED\n  " + "\n  ".join(problems)))

    if args.workload:
        summary = summaries[args.workload]
        if args.trace:
            values, units = summary["layers"], PER_LAYER_UNITS
        else:
            values, units = summary["metrics"], END_TO_END_UNITS
        print(json.dumps({
            "correct": not problems,
            "attempted": summary["attempted"],
            "failed": summary["failed"],
            "metrics": {m: {"value": values[m], "unit": u}
                        for m, u in units.items()},
        }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
