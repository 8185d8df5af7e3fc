"""One repetition of one workload: set-up, closed loop, checks.

Run as a script it is the body of a fresh process (``run.py`` starts one
per repetition, so caches, pools and peak RSS belong to that repetition)
and prints its result as one JSON line::

    PYTHONPATH=src python benchmarks/e2e/repetition.py \\
        --workload durable_small --seed 1 --requests 200 --workdir DIR

A single client thread drives the loop: submit, wait for
``job.result()``, submit the next.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import threading
import time
from typing import Dict, List, Optional

import numpy as np

from loadgen import WORKLOADS, Request, make_requests, vqe_energy_errors
from tracer import Tracer, layer_metrics

__all__ = ["run_repetition"]

#: Mean |E - exact E| over a VQE repetition's scanned angles must stay
#: under this (Hartree); seed 1 measures about 0.04.
VQE_ENERGY_TOLERANCE_HA = 0.1

#: The benchmark host is shared, and its speed drifts by tens of percent
#: over minutes.  A fixed probe — interpreter work on a small dict and
#: 32x32 complex matrix products, the mix the service spends its time
#: in, on two threads at once like the service's job and pool threads —
#: runs between requests at most every PROBE_INTERVAL_NS.  Every
#: reported time is scaled by PROBE_REFERENCE_MS over the probe's median
#: duration, i.e. to a host where the probe takes PROBE_REFERENCE_MS.
#: The probe runs no ``repro`` code, so no change to the service can
#: move it; the raw times are kept in the result as well.
PROBE_REFERENCE_MS = 5.5
PROBE_INTERVAL_NS = 200_000_000
_PROBE_THREADS = 2
_PROBE_MATRIX = (np.arange(1024).reshape(32, 32) % 7 - 3) / 8.0 + 0j


def _probe_slice() -> None:
    m = _PROBE_MATRIX.copy()
    table: Dict[str, List[complex]] = {}
    for i in range(60):
        m = m @ _PROBE_MATRIX
        m /= np.abs(m).max()
        table[str(i % 40)] = [complex(m[0, 0])] * 8
        sum(abs(v[0]) for v in table.values())


def _probe_ms() -> float:
    """Run the host-speed probe once; its duration in ms."""
    start = time.perf_counter_ns()
    threads = [threading.Thread(target=_probe_slice)
               for _ in range(_PROBE_THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return (time.perf_counter_ns() - start) / 1e6


def _counters(provider) -> Dict[str, int]:
    counters = dict(provider.compile_service.stats)
    counters.update({f"execution.{k}": v for k, v in
                     provider.execution_service.stats.items()})
    return counters


def _counts_digest(result) -> List[List]:
    return [sorted(p.counts.items()) for p in result.programs]


def _replay(workload, request: Request, workdir: str) -> List[List]:
    """Counts of *request* served by a fresh provider (cold caches)."""
    provider, backend = workload.open(workdir)
    with provider:
        result = backend.run(request.payload, shots=workload.shots,
                             seed=request.seed).result()
    return _counts_digest(result)


def run_repetition(name: str, seed: int, requests: int, workdir: str,
                   traced: bool = False,
                   spans_path: Optional[str] = None) -> Dict[str, object]:
    """Run one repetition and return its metrics and check outcomes.

    ``problems`` in the result lists every failed correctness check;
    an empty list means the repetition's outputs are correct.
    """
    workload = WORKLOADS[name]
    generated = make_requests(workload, seed, workload.warmup + requests)
    warmup, measured = generated[:workload.warmup], generated[
        workload.warmup:]
    problems: List[str] = []
    probes = [_probe_ms()]

    started = time.perf_counter()
    provider, backend = workload.open(os.path.join(workdir, "service"))
    with provider:
        backend.warm()
        for request in warmup:
            backend.run(request.payload, shots=workload.shots,
                        seed=request.seed).result()
        setup_s = time.perf_counter() - started

        tracer = Tracer() if traced else None
        timings = []
        digest = hashlib.sha256()
        first_counts = None
        programs = hardware_jobs = failed = 0
        jsd_sum = throughput_sum = 0.0
        vqe_probabilities = []
        before = _counters(provider)
        if tracer is not None:
            tracer.install()
        probe_ns = 0
        last_probe = time.perf_counter_ns()
        try:
            for i, request in enumerate(measured):
                if tracer is not None:
                    tracer.request = i
                if time.perf_counter_ns() - last_probe > PROBE_INTERVAL_NS:
                    probes.append(_probe_ms())
                    last_probe = time.perf_counter_ns()
                    if timings:
                        probe_ns += int(probes[-1] * 1e6)
                submitted = time.perf_counter_ns()
                try:
                    job = backend.run(request.payload, shots=workload.shots,
                                      seed=request.seed)
                    returned = time.perf_counter_ns()
                    result = job.result()
                except Exception as exc:  # noqa: BLE001 - counted, reported
                    failed += 1
                    problems.append(f"request {i} raised {exc!r}")
                    continue
                done = time.perf_counter_ns()
                timings.append((submitted, returned, done))
                meta = result.metadata
                if meta.rejected or len(result.programs) != \
                        request.num_programs:
                    failed += 1
                    problems.append(
                        f"request {i}: {len(result.programs)} of "
                        f"{request.num_programs} programs completed")
                for program in result.programs:
                    if sum(program.counts.values()) != workload.shots:
                        problems.append(
                            f"request {i} program {program.index}: counts "
                            f"do not sum to {workload.shots} shots")
                    jsd_sum += program.jsd
                counts = _counts_digest(result)
                digest.update(json.dumps(counts).encode())
                if first_counts is None:
                    first_counts = counts
                programs += len(result.programs)
                hardware_jobs += meta.num_hardware_jobs
                throughput_sum += meta.throughput * meta.num_hardware_jobs
                if request.thetas:
                    vqe_probabilities.append(
                        (request, [p.probabilities for p in result.programs]))
        finally:
            if tracer is not None:
                tracer.uninstall()
        delta = {k: v - before[k] for k, v in _counters(provider).items()}
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if not timings:
        raise RuntimeError(f"every {name} request failed: {problems[:3]}")
    latencies_ms = np.array([(done - submitted) / 1e6
                             for submitted, _, done in timings])
    wall_s = (timings[-1][2] - timings[0][0] - probe_ns) / 1e9
    probe_ms = float(np.median(probes))
    scale = PROBE_REFERENCE_MS / probe_ms
    raw = {
        "setup_s": setup_s,
        "latency_p50_ms": float(np.percentile(latencies_ms, 50)),
        "latency_p90_ms": float(np.percentile(latencies_ms, 90)),
        "programs_per_s": programs / wall_s,
    }
    rep: Dict[str, object] = {
        "workload": name,
        "seed": seed,
        "traced": traced,
        "attempted": len(measured),
        "failed": failed,
        "programs": programs,
        "setup_s": raw["setup_s"] * scale,
        "latency_p50_ms": raw["latency_p50_ms"] * scale,
        "latency_p90_ms": raw["latency_p90_ms"] * scale,
        "latency_samples": len(latencies_ms),
        "programs_per_s": raw["programs_per_s"] / scale,
        "raw": raw,
        "probe_ms": probe_ms,
        "probes": len(probes),
        "peak_rss_mb": peak_rss_mb,
        "mean_jsd": jsd_sum / programs,
        "hw_throughput": throughput_sum / hardware_jobs,
        "result_digest": digest.hexdigest(),
    }
    if vqe_probabilities:
        errors = [e for request, probs in vqe_probabilities
                  for e in vqe_energy_errors(request, probs)]
        rep["vqe_energy_error_ha"] = float(np.mean(errors))
        if rep["vqe_energy_error_ha"] >= VQE_ENERGY_TOLERANCE_HA:
            problems.append(
                f"mean VQE energy error {rep['vqe_energy_error_ha']:.4f} Ha "
                f">= {VQE_ENERGY_TOLERANCE_HA} Ha")
    if _replay(workload, measured[0],
               os.path.join(workdir, "replay")) != first_counts:
        problems.append("first measured request replayed on a fresh "
                        "provider gave different counts")
    if tracer is not None:
        left = Tracer.leftovers()
        if left:
            problems.append(f"tracing wrappers left behind: {left}")
        rep["layers"] = layer_metrics(tracer, timings, programs,
                                      hardware_jobs, delta, scale)
        if spans_path:
            tracer.write_jsonl(spans_path)
    rep["problems"] = problems
    return rep


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--requests", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--spans", help="write the traced spans here")
    args = parser.parse_args(argv)
    rep = run_repetition(args.workload, args.seed, args.requests,
                         args.workdir, traced=args.traced,
                         spans_path=args.spans)
    print(json.dumps(rep))
    return 0


if __name__ == "__main__":
    sys.exit(main())
