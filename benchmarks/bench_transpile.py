"""Compile-latency benchmark: cold vs warm-context vs the compile service.

The multi-programming service transpiles every incoming program onto its
allocated partition.  This bench quantifies the three compile paths on
fleet-scale traffic (:mod:`repro.workloads.traffic`, heavy-tail mix —
small repeated programs dominate, exactly the cloud profile):

- **cold** — the seed behaviour: every call rebuilds the
  partition-induced coupling/calibration and re-runs the Dijkstra
  distance tables (a fresh :class:`DeviceContext` per call, no result
  cache);
- **warm** — one shared :class:`DeviceContext` (memoized partition
  sub-contexts, cached tables) plus the shared
  :class:`~repro.core.ExecutionCache`, so repeated (program, partition)
  pairs are cache hits;
- **service** — the warm path submitted through
  :class:`~repro.core.CompileService` (inline), same shared caches.

Two fresh-compile sections ride along, with no gate: a serial
cold-miss compile of unique programs on a wide (65q) device — the
baseline for cheaper fresh compiles; every pass draws other programs,
so no compile plan memoized on a partition context is ever reused —
and a fresh-angle pass: 16 two-qubit VQE measurement programs with new
angles each pass, on 16 fixed partitions of the same device through one
shared context, so each compile replays its skeleton's layout, routing
and ALAP plans.  A scheduler-dedup check follows: it schedules
repeated programs at distinct queue indices with
:class:`~repro.core.CloudScheduler`, compiles every dispatched
allocation through one compile service, and gates on **zero
re-transpiles** (the structural cache key dedups across submissions).

A persistent-store section exercises the layered cache across process
boundaries: one process compiles the full mix into a SQLite WAL store,
then a **fresh spawned process** (empty in-memory tiers) replays the
identical mix against that store.  The gate: the cold process must
compile **zero** programs — every request is served by promoting the
artifact stored under its exact structural key.

The acceptance gate (also run in CI via ``--smoke``): warm-context
service compilation must beat cold per-call transpilation by >= 5x on
the repeated-program mix.  Every timed path reports the best of
``REPEATS`` interleaved passes, each run with the cyclic garbage
collector off after a full collection (as :mod:`timeit` does), so a
collection triggered by one path's garbage never lands in another
path's window.  Timings land in ``BENCH_transpile.json`` (or
``--out PATH``) so the compile-latency trajectory accumulates.

Run:  PYTHONPATH=../src python bench_transpile.py [--smoke] [--out PATH]
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import sys
import tempfile
import time
from typing import Dict, List, Sequence, Tuple

from conftest import connected_subset, print_table

from repro.circuits import QuantumCircuit, random_circuit
from repro.core import AllocationResult, CloudScheduler, CompileService, \
    ExecutionCache, ProgramAllocation, SubmittedProgram, \
    allocation_engine, get_allocator
from repro.cache import circuit_key
from repro.hardware import Device, ibm_manhattan, ibm_toronto
from repro.transpiler import DeviceContext, transpile_for_partition
from repro.vqe import (
    group_commuting_terms,
    h2_hamiltonian,
    measurement_circuit,
    ryrz_ansatz,
)
from repro.workloads import synthesize_traffic

#: CI override knob (mirrors KERNEL_SPEEDUP_FLOOR/SCHEDULER_SPEEDUP_FLOOR).
SPEEDUP_FLOOR = float(os.environ.get("TRANSPILE_SPEEDUP_FLOOR", "5.0"))

ARTIFACT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "BENCH_transpile.json")

#: Timed passes per path; each path reports its fastest.
REPEATS = 5


def timed_pass(fn, *args):
    """``fn(*args)`` with the cyclic garbage collector off, as timeit
    does.

    A full collection first, so garbage from earlier passes cannot
    trigger a collection inside this pass's window.
    """
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        return fn(*args)
    finally:
        if enabled:
            gc.enable()


def placed_traffic(device: Device, num_programs: int, seed: int
                   ) -> List[Tuple[QuantumCircuit, Tuple[int, ...]]]:
    """(circuit, solo-best partition) pairs for a synthetic stream."""
    subs = synthesize_traffic(num_programs, pattern="poisson",
                              mean_interarrival_ns=2e5, mix="heavy_tail",
                              seed=seed)
    engine = allocation_engine(device)
    allocator = get_allocator("qucp")
    out = []
    for sub in subs:
        placement = engine.solo_best(allocator, sub.circuit)
        if placement is not None:
            out.append((sub.circuit, placement.partition))
    return out


def allocations(device: Device,
                traffic: Sequence[Tuple[QuantumCircuit, Tuple[int, ...]]]
                ) -> List[ProgramAllocation]:
    """Service-style compile requests: one per submission.

    Requests carry their real queue indices: the structural cache key
    ignores ``index`` for index-insensitive hooks, so identical
    (program, partition) requests dedup without the old index-0
    normalization workaround.
    """
    return [ProgramAllocation(i, circuit, partition, 0.0)
            for i, (circuit, partition) in enumerate(traffic)]


def bench_cold(device: Device, traffic) -> float:
    """Seed behaviour: fresh context per call, no result cache."""
    start = time.perf_counter()
    for circuit, partition in traffic:
        transpile_for_partition(
            circuit, device, partition,
            context=DeviceContext(device.coupling, device.calibration))
    return time.perf_counter() - start


def bench_warm(device: Device, traffic) -> Tuple[float, ExecutionCache]:
    """Shared DeviceContext + shared ExecutionCache, serial."""
    svc = CompileService()
    context = DeviceContext(device.coupling, device.calibration)

    def hook(circuit, dev, alloc):
        return transpile_for_partition(circuit, dev, alloc.partition,
                                       context=context)

    allocs = allocations(device, traffic)
    start = time.perf_counter()
    for alloc in allocs:
        svc.transpile(alloc.circuit, device, alloc, hook)
    return time.perf_counter() - start, svc.cache


def bench_warm_context_only(device: Device, traffic) -> float:
    """Shared DeviceContext, but no result cache (every call compiles)."""
    context = DeviceContext(device.coupling, device.calibration)
    start = time.perf_counter()
    for circuit, partition in traffic:
        transpile_for_partition(circuit, device, partition,
                                context=context)
    return time.perf_counter() - start


def bench_service(device: Device, traffic) -> float:
    """Compile through the service's futures API (inline)."""
    context = DeviceContext(device.coupling, device.calibration)

    def hook(circuit, dev, alloc):
        return transpile_for_partition(circuit, dev, alloc.partition,
                                       context=context)

    allocs = allocations(device, traffic)
    svc = CompileService()
    start = time.perf_counter()
    futures = [svc.submit(a.circuit, device, a, hook) for a in allocs]
    for fut in futures:
        fut.result()
    return time.perf_counter() - start


def unique_cold_job(device: Device, num_programs: int, seed: int,
                    draw: int = 0) -> AllocationResult:
    """*Unique* heavy programs on BFS-grown partitions: a pure cold-miss
    batch (no result-cache dedup possible).  Each *draw* keeps the
    sizes and partitions and draws other circuits."""
    import numpy as np

    rng = np.random.default_rng(seed)
    job = AllocationResult(method="bench-cold", device=device)
    for i in range(num_programs):
        size = int(rng.integers(5, 8))
        circuit = random_circuit(size - 1,
                                 int(rng.integers(25, 40)),
                                 seed=seed * 7919 + i + 104729 * draw)
        circuit.measure_all()
        start = int(rng.integers(device.num_qubits))
        partition = connected_subset(device.coupling, start, size)
        job.allocations.append(ProgramAllocation(
            i, circuit, partition, 0.0))
    return job


def bench_cold_serial(device: Device, num_programs: int,
                      seed: int, draw: int = 0) -> float:
    """Compile a cold-miss batch inline from an empty result cache."""
    job = unique_cold_job(device, num_programs, seed, draw)
    svc = CompileService()
    start = time.perf_counter()
    svc.compile_allocation(job)
    return time.perf_counter() - start


def disjoint_pairs(device: Device, count: int) -> List[Tuple[int, int]]:
    """*count* disjoint device links, lowest qubits first."""
    pairs: List[Tuple[int, int]] = []
    used: set = set()
    for a, b in device.coupling.edges:
        if a not in used and b not in used:
            pairs.append((a, b))
            used.update((a, b))
    return pairs[:count]


def bench_fresh_angles(device: Device, context: DeviceContext,
                       partitions, seed: int) -> float:
    """Compile one two-qubit VQE measurement program with new angles
    onto each of *partitions*, through *context*."""
    import numpy as np

    groups = group_commuting_terms(h2_hamiltonian())
    rng = np.random.default_rng(seed)
    programs = [measurement_circuit(
                    ryrz_ansatz([float(rng.uniform(0.1, 3.0))]),
                    groups[i % len(groups)])
                for i in range(len(partitions))]
    start = time.perf_counter()
    for circuit, partition in zip(programs, partitions):
        transpile_for_partition(circuit, device, partition,
                                context=context)
    return time.perf_counter() - start


def plan_counts(context: DeviceContext, partitions) -> Tuple[int, int]:
    """Plan hits and misses summed over *partitions*' contexts."""
    stats = [context.partition_context(p).stats for p in partitions]
    return (sum(s["plan_hits"] for s in stats),
            sum(s["plan_misses"] for s in stats))


def _store_compile_pass(store_path: str, num_programs: int, seed: int
                        ) -> Tuple[int, int, float]:
    """Compile the standard traffic mix through a store-backed cache.

    Top-level so it doubles as a ``spawn`` target: the cold phase runs
    this exact function in a fresh interpreter whose only shared state
    with the warm phase is the on-disk store.  Returns
    ``(submitted, promotions, elapsed_s)``.
    """
    device = ibm_toronto()
    traffic = placed_traffic(device, num_programs, seed)
    job = AllocationResult(method="bench-store", device=device)
    job.allocations.extend(allocations(device, traffic))
    svc = CompileService(cache=ExecutionCache(store_path=store_path))
    start = time.perf_counter()
    svc.compile_allocation(job)
    elapsed = time.perf_counter() - start
    stats = svc.stats
    return stats["submitted"], stats["promotions"], elapsed


def bench_cold_process_warm_store(num_programs: int, seed: int,
                                  store_dir: str) -> Dict[str, float]:
    """Warm a persistent store in-process, then replay the identical
    mix from a spawned cold process (empty L1 tiers, shared store)."""
    store_path = os.path.join(store_dir, "bench_store.db")
    warm_compiled, _, warm_s = _store_compile_pass(
        store_path, num_programs, seed)
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(1) as pool:
        cold_compiled, cold_promotions, cold_s = pool.apply(
            _store_compile_pass, (store_path, num_programs, seed))
    return {
        "warm_compiled": warm_compiled,
        "warm_s": warm_s,
        "cold_compiled": cold_compiled,
        "cold_promotions": cold_promotions,
        "cold_s": cold_s,
        "speedup": warm_s / cold_s if cold_s else float("inf"),
    }


def scheduler_dedup(device: Device, num_programs: int, seed: int
                    ) -> Tuple[int, int, int]:
    """Compile every job the cloud scheduler dispatches through one
    compile service and count re-transpiles of structurally identical
    submissions.

    Serial service (one program per job) over a heavy-tail mix: every
    repeated circuit arrives at a distinct queue index and must hit the
    structural cache instead of re-compiling.  Returns
    ``(requests, compiled, unique_structural)``.
    """
    subs = synthesize_traffic(num_programs, pattern="poisson",
                              mean_interarrival_ns=2e5, mix="heavy_tail",
                              seed=seed)
    outcome = CloudScheduler(device, max_batch_size=1,
                             fidelity_threshold=0.0).schedule(subs)
    svc = CompileService()
    for job in outcome.jobs:
        svc.compile_allocation(job.allocation)
    allocs = [a for job in outcome.jobs for a in job.allocation.allocations]
    unique = len({(circuit_key(a.circuit), a.partition) for a in allocs})
    return len(allocs), svc.stats["submitted"], unique


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small CI configuration with the >=5x gate")
    parser.add_argument("--programs", type=int, default=None,
                        help="number of submissions (default 150; 60 "
                             "with --smoke)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", default=ARTIFACT,
                        help="artifact path (default: the committed "
                             "BENCH_transpile.json)")
    args = parser.parse_args(argv)

    num_programs = args.programs or (60 if args.smoke else 150)
    device = ibm_toronto()
    traffic = placed_traffic(device, num_programs, args.seed)
    unique = len({(circuit_key(c), p) for c, p in traffic})

    # Untimed warm-up pass: the first timed path in a process otherwise
    # wins from interpreter/allocator warm-up regardless of merit.
    bench_cold(device, traffic)

    cold_s = warm_ctx_s = warm_s = service_s = float("inf")
    for _ in range(REPEATS):
        cold_s = min(cold_s, timed_pass(bench_cold, device, traffic))
        warm_ctx_s = min(warm_ctx_s, timed_pass(
            bench_warm_context_only, device, traffic))
        warm_pass, cache = timed_pass(bench_warm, device, traffic)
        warm_s = min(warm_s, warm_pass)
        service_s = min(service_s,
                        timed_pass(bench_service, device, traffic))

    n = len(traffic)
    rows = [
        ["cold (per-call rebuild)", n, f"{cold_s * 1e3:.1f}",
         f"{cold_s / n * 1e3:.2f}", "1.00x"],
        ["warm context only", n, f"{warm_ctx_s * 1e3:.1f}",
         f"{warm_ctx_s / n * 1e3:.2f}", f"{cold_s / warm_ctx_s:.2f}x"],
        ["warm (context + result cache)", n, f"{warm_s * 1e3:.1f}",
         f"{warm_s / n * 1e3:.2f}", f"{cold_s / warm_s:.2f}x"],
        ["service (inline)", n, f"{service_s * 1e3:.1f}",
         f"{service_s / n * 1e3:.2f}", f"{cold_s / service_s:.2f}x"],
    ]
    print_table(
        f"Compile latency, {n} programs ({unique} unique placements), "
        f"heavy-tail Poisson mix on {device.name}, best of {REPEATS} "
        "GC-off passes",
        ["path", "programs", "total(ms)", "per-program(ms)", "vs cold"],
        rows)
    print(f"result cache on warm pass: {cache.transpile_hits} hits / "
          f"{cache.transpile_misses} misses")

    # --- cold path: unique programs on a wide device --------------------
    wide = ibm_manhattan()
    n_cold = 12 if args.smoke else 48
    cold_serial_s = min(
        timed_pass(bench_cold_serial, wide, n_cold, args.seed, draw)
        for draw in range(REPEATS))
    cores = os.cpu_count() or 1
    print(f"cold-miss compile of {n_cold} unique programs on {wide.name} "
          f"({wide.num_qubits}q, {cores} cores): "
          f"{cold_serial_s * 1e3:.1f} ms "
          f"({cold_serial_s / n_cold * 1e3:.2f} ms/program, inline, "
          f"best of {REPEATS} GC-off passes)")

    # --- fresh angles on warm partitions -------------------------------
    pairs = disjoint_pairs(wide, 16)
    shared = DeviceContext(wide.coupling, wide.calibration)
    bench_fresh_angles(wide, shared, pairs, args.seed)  # warm-up pass
    warm_plans = plan_counts(shared, pairs)
    fresh_s = min(
        timed_pass(bench_fresh_angles, wide, shared, pairs,
                   args.seed + 1 + i)
        for i in range(REPEATS))
    hits, misses = (now - before for now, before in
                    zip(plan_counts(shared, pairs), warm_plans))
    print(f"fresh angles, warm context: {len(pairs)} two-qubit VQE "
          f"programs per pass on {wide.name}: {fresh_s * 1e3:.2f} ms "
          f"({fresh_s / len(pairs) * 1e3:.3f} ms/program, best of "
          f"{REPEATS} GC-off passes; {hits} plan hits and {misses} misses "
          f"over the {REPEATS} passes)")

    # --- cold process on a warm persistent store -----------------------
    with tempfile.TemporaryDirectory(prefix="bench-store-") as store_dir:
        store = bench_cold_process_warm_store(
            num_programs, args.seed, store_dir)
    print(f"cold process on warm store: warm pass compiled "
          f"{store['warm_compiled']} programs in "
          f"{store['warm_s'] * 1e3:.1f} ms; spawned cold process "
          f"compiled {store['cold_compiled']} "
          f"({store['cold_promotions']} store promotions) in "
          f"{store['cold_s'] * 1e3:.1f} ms "
          f"({store['speedup']:.2f}x vs warm compile pass)")

    # --- scheduler-path structural dedup -------------------------------
    requests, compiled, unique_structural = scheduler_dedup(
        device, num_programs, args.seed)
    retranspiles = compiled - unique_structural
    print(f"scheduler dedup: {requests} compile requests at distinct "
          f"queue indices -> {compiled} compiled "
          f"({unique_structural} unique programs, "
          f"{retranspiles} re-transpiles)")

    warm_speedup = cold_s / warm_s
    payload = {
        "bench": "bench_transpile",
        "device": device.name,
        "programs": n,
        "seed": args.seed,
        "smoke": bool(args.smoke),
        "repeats": REPEATS,
        "cold_s": cold_s,
        "warm_context_only_s": warm_ctx_s,
        "warm_s": warm_s,
        "service_s": service_s,
        "warm_speedup": warm_speedup,
        "warm_context_only_speedup": cold_s / warm_ctx_s,
        "service_speedup": cold_s / service_s,
        "floor": SPEEDUP_FLOOR,
        "cold_miss": {
            "device": wide.name,
            "programs": n_cold,
            "cores": cores,
            "serial_s": cold_serial_s,
        },
        "fresh_angles_warm_context": {
            "device": wide.name,
            "programs": len(pairs),
            "pass_s": fresh_s,
            "plan_hits": hits,
            "plan_misses": misses,
        },
        "scheduler_dedup": {
            "requests": requests,
            "compiled": compiled,
            "unique_structural": unique_structural,
            "retranspiles": retranspiles,
        },
        "cold_process_warm_store": store,
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")

    if store["cold_compiled"] != 0:
        print(f"FAIL: cold process on warm store compiled "
              f"{store['cold_compiled']} programs (expected 0: every "
              "program structure was already in the persistent store)",
              file=sys.stderr)
        return 1
    print("OK: cold process on warm store compiled 0 programs "
          f"({store['cold_promotions']} artifacts promoted from the "
          "persistent store)")

    if retranspiles != 0:
        print(f"FAIL: {retranspiles} re-transpiles of structurally "
              "identical submissions at distinct queue indices "
              "(expected 0)", file=sys.stderr)
        return 1
    print("OK: warm-equivalent submissions at distinct queue indices "
          "hit the cache (0 re-transpiles)")

    print(f"\nwarm-context speedup over cold per-call transpile: "
          f"{warm_speedup:.2f}x (floor {SPEEDUP_FLOOR:g}x)")
    if warm_speedup < SPEEDUP_FLOOR:
        print("FAIL: warm-context compilation did not reach the "
              f"{SPEEDUP_FLOOR:g}x floor", file=sys.stderr)
        return 1
    print(f"OK: warm-context compilation beats cold per-call "
          f"transpilation by >= {SPEEDUP_FLOOR:g}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
