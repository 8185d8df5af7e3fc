"""Execution-scaling benchmark: serial vs process-sharded simulation.

The multi-programming service spends its steady-state cycles *running*
programs: every dispatched hardware job is one
:func:`repro.sim.executor.run_parallel` batch.  This bench quantifies
the :class:`~repro.core.ExecutionService` over that unit of work — a
wide co-tenant batch on a 65q device, per-program cost in the tens of
milliseconds, exactly the load the measured route table sends to the
process pool:

- **serial** — the seed behaviour, one interpreter simulating every
  program in turn;
- **process, chunked** — contiguous per-worker chunks carrying the
  plain-data device fingerprint plus pre-spawned seeds; workers
  rebuild the noise model once and keep it for the pool's lifetime;
- **auto** — the measured route table (``choose_route``); on a 1-core
  host this must collapse to serial rather than pay pool overhead for
  nothing.

Two gates, both CI-run via ``--smoke``:

- sharded execution is **bit-identical** to serial — counts,
  probabilities, clbit records — on every route (hard gate, any host);
- the auto route's speedup over serial is >=
  ``EXECUTION_SPEEDUP_FLOOR`` (default 0.85: conservative, CI runners
  may be 1-2 cores where the honest answer is ~1.0x; a 4-core host
  sees the process route win — the artifact records ``cores`` so every
  committed number is interpretable).

The service memoizes repeated programs, so every timed round runs a
fresh batch that no service has seen (the same gates with new rotation
angles): the route timings measure simulation, not memo hits.  One
extra row times a repeated batch, which the service serves from its
memo.

The run also prints the two inputs of the route table in
:mod:`repro.core.execution_service`: the serial per-program simulation
cost at widths 1-7 (``_PROGRAM_COST_MS``; random programs at the
batch's depth and shots) and the process pool's per-batch overhead —
the process route's time minus the serial route's, plus the share of
the batch's per-program half the workers took off the parent — with
the per-program work at which the pool breaks even
(``_PROCESS_MIN_BATCH_MS``).

Timings land in ``BENCH_execution.json`` (or ``--out PATH``).

Run:  PYTHONPATH=../src python bench_execution.py [--smoke] [--out PATH]
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
import time
from typing import Dict, List, Sequence, Tuple

import numpy as np

from conftest import connected_subset, print_table

from repro.circuits import QuantumCircuit
from repro.core import ExecutionService
from repro.hardware import Device, ibm_manhattan, ibm_toronto
from repro.sim.executor import (Program, prepare_parallel, run_parallel,
                                simulate_programs, spawn_seeds)

#: CI override knob (mirrors TRANSPILE_SPEEDUP_FLOOR and friends).
SPEEDUP_FLOOR = float(os.environ.get("EXECUTION_SPEEDUP_FLOOR", "0.85"))

ARTIFACT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "BENCH_execution.json")


def disjoint_partitions(device: Device, sizes: Sequence[int],
                        rng: np.random.Generator) -> List[Tuple[int, ...]]:
    """Disjoint BFS-grown connected partitions covering the device."""
    partitions: List[Tuple[int, ...]] = []
    used: set = set()
    starts = list(rng.permutation(device.num_qubits))
    for size in sizes:
        for start in starts:
            if start in used:
                continue
            part = connected_subset(device.coupling, int(start), size)
            if len(part) == size and used.isdisjoint(part):
                partitions.append(part)
                used.update(part)
                break
    return partitions


def random_program(device: Device, partition: Tuple[int, ...],
                   rng: np.random.Generator, depth: int) -> Program:
    """A random program whose 2q gates respect *partition*'s links."""
    links = {frozenset(edge) for edge in device.coupling.edges}
    local_edges = [
        (i, j)
        for i in range(len(partition)) for j in range(i + 1, len(partition))
        if frozenset((partition[i], partition[j])) in links
    ]
    n = len(partition)
    circuit = QuantumCircuit(n, n)
    for _ in range(depth):
        r = rng.random()
        if local_edges and r < 0.4:
            i, j = local_edges[int(rng.integers(len(local_edges)))]
            circuit.cx(i, j)
        elif r < 0.6:
            circuit.rz(float(rng.uniform(0.0, 2.0 * np.pi)),
                       int(rng.integers(0, n)))
        elif r < 0.8:
            circuit.h(int(rng.integers(0, n)))
        else:
            circuit.x(int(rng.integers(0, n)))
    circuit.measure_all()
    return Program(circuit, partition)


def with_fresh_angles(program: Program,
                      rng: np.random.Generator) -> Program:
    """*program* with every ``rz`` angle drawn anew.

    The gates, their timing and hence the joint schedule's crosstalk
    scales and every noise channel stay the same; only the circuit's
    value changes, so the service's memo misses while the per-gate
    tables every path shares stay warm.
    """
    old = program.circuit
    circuit = QuantumCircuit(old.num_qubits, old.num_clbits)
    for inst in old:
        if inst.name == "rz":
            circuit.rz(float(rng.uniform(0.0, 2.0 * np.pi)), *inst.qubits)
        else:
            circuit.append(inst.gate, inst.qubits, inst.clbits)
    return Program(circuit, program.partition)


def cotenant_batches(device: Device, sizes: Sequence[int], seed: int,
                     depth: int, count: int) -> List[List[Program]]:
    """*count* batches of one random co-tenant batch: the first is the
    batch itself, each later one has fresh rotation angles."""
    rng = np.random.default_rng(seed)
    partitions = disjoint_partitions(device, sizes, rng)
    first = [random_program(device, part, rng, depth)
             for part in partitions]
    return [first] + [[with_fresh_angles(prog, rng) for prog in first]
                      for _ in range(count - 1)]


def width_costs(device: Device, depth: int, shots: int, seed: int,
                repeats: int) -> Dict[int, float]:
    """Best-of serial simulation ms of one random program per width 1-7.

    Times the per-program loop alone (noise model built once, no joint
    schedule), which is what the route table prices per program.
    """
    rng = np.random.default_rng(seed)
    noise = device.noise_model()
    costs: Dict[int, float] = {}
    for width in range(1, 8):
        partition = disjoint_partitions(device, [width], rng)[0]
        program = random_program(device, partition, rng, depth)
        task = (program.circuit, partition, spawn_seeds(seed, 1)[0], {})
        costs[width] = _best_ms(
            lambda: simulate_programs([task], noise, shots), repeats)
    return costs


def _best_ms(fn, repeats: int) -> float:
    """Best-of-*repeats* wall clock of *fn* (ms), after one warm call."""
    fn()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def identical(got, want) -> bool:
    return all(
        g.counts == w.counts
        and g.probabilities == w.probabilities
        and g.shots == w.shots
        and g.measured_clbits == w.measured_clbits
        for g, w in zip(got, want)) and len(got) == len(want)


def timed_paths(workers: int, batches, device, shots: int, seed: int,
                repeats: int) -> Tuple[Dict[str, float], bool]:
    """Best-of wall clock (s) of every path, and whether every service
    route was bit-identical to the baseline on every batch.

    The paths are the seed ``run_parallel`` baseline, the service's
    serial, auto and process routes, and the batch's serial per-program
    half alone (the work a pool can share; the joint half always runs
    in the parent).  Each gets one untimed warm-up (pools, caches) on
    ``batches[0]``, then they are timed round-robin, one fresh batch per
    round, so host-speed drift lands on all alike and no round is served
    from a service's memo.  The process route goes last in a round,
    followed by a pause: its workers' BLAS threads keep spinning for
    ~0.1 s after a chunk, which on 2 cores would otherwise be billed to
    the next path.  Last, ``memo`` times the serial service re-running
    the final batch, which its memo serves.
    """
    noise = device.noise_model()
    modes = ("serial", "auto", "process")
    with contextlib.ExitStack() as stack:
        services = {mode: stack.enter_context(
            ExecutionService(max_workers=workers, mode=mode))
            for mode in modes}

        def paths(programs):
            effective, scales = prepare_parallel(programs, device)
            seeds = spawn_seeds(seed, len(effective))
            tasks = [(prog.circuit, prog.partition, seeds[k], scales[k])
                     for k, prog in enumerate(effective)]
            runs = {"baseline": functools.partial(
                run_parallel, programs, device, shots=shots, seed=seed)}
            runs["per_program"] = functools.partial(
                simulate_programs, tasks, noise, shots)
            for mode in modes:
                runs[mode] = functools.partial(
                    services[mode].run_parallel, programs, device,
                    shots=shots, seed=seed)
            return runs

        best: Dict[str, float] = {}
        same = True
        for round_, programs in enumerate(batches[:repeats + 1]):
            if round_:
                time.sleep(0.3)
            runs = paths(programs)
            # Untimed: builds the fresh angles' gate superoperators in
            # this process's shared table, which the first timed path
            # would otherwise pay for alone.  Pool workers build their
            # own (~10-15 ms of work per full batch, shared by them).
            runs["baseline"]()
            results = {}
            for name, run in runs.items():
                start = time.perf_counter()
                results[name] = run()
                if round_:  # round 0 is the warm-up
                    best[name] = min(best.get(name, float("inf")),
                                     time.perf_counter() - start)
            same = same and all(identical(results[mode],
                                          results["baseline"])
                                for mode in modes)
        for mode, svc in services.items():
            if svc.stats["memo_hits"]:
                # A program without an rz cannot be made fresh.
                raise RuntimeError(
                    f"a timed {mode} round was served from the memo; "
                    "pick a --seed whose programs all have an rz")
        memo = functools.partial(services["serial"].run_parallel,
                                 batches[repeats], device, shots=shots,
                                 seed=seed)
        best["memo"] = _best_ms(memo, repeats) / 1e3
        same = same and identical(memo(), results["baseline"])
        for mode, svc in services.items():
            if svc.stats["fallbacks"]:
                print(f"warning: {svc.stats['fallbacks']} inline "
                      f"fallbacks in {mode} mode", file=sys.stderr)
    return best, same


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small CI configuration with the identity "
                             "and floor gates")
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--shots", type=int, default=4096)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeats", type=int, default=None,
                        help="timed repetitions per route (best-of)")
    parser.add_argument("--out", default=ARTIFACT,
                        help="where to write the JSON artifact "
                             "(default: the committed BENCH_execution.json)")
    args = parser.parse_args(argv)

    cores = os.cpu_count() or 1
    # Best-of-10 on the full batch: ~100 ms runs on a shared host vary
    # by tens of percent, and the floor compares two of them.
    repeats = args.repeats or (3 if args.smoke else 10)
    if args.smoke:
        device = ibm_toronto()
        sizes = [5, 5, 4, 4, 3]
        depth = 16
    else:
        # Depth matches the route table's measurement basis (transpiled
        # service workloads); shallow NN circuits undershoot it.
        device = ibm_manhattan()
        sizes = [7, 6, 6, 6, 5, 5, 5, 4, 4, 4, 3, 3]
        depth = 72
    batches = cotenant_batches(device, sizes, args.seed, depth,
                               repeats + 1)
    programs = batches[0]
    widths = [len(p.partition) for p in programs]

    best, identical_everywhere = timed_paths(
        args.workers, batches, device, args.shots, args.seed, repeats)
    baseline_s = best["baseline"]

    auto_route = ExecutionService.choose_route(widths, args.shots)
    est_ms = ExecutionService.estimate_batch_ms(widths, args.shots)

    same = "yes" if identical_everywhere else "NO"
    rows = [["run_parallel (seed baseline)", f"{baseline_s * 1e3:.1f}",
             "1.00x", "yes"]]
    timings: Dict[str, float] = {"baseline_s": baseline_s}
    for mode in ("serial", "process", "auto", "memo"):
        label = {"auto": f"auto (route: {auto_route})",
                 "memo": "serial, repeated batch (memo hits)"}.get(mode, mode)
        rows.append([f"service {label}", f"{best[mode] * 1e3:.1f}",
                     f"{baseline_s / best[mode]:.2f}x", same])
        timings[f"{mode}_s"] = best[mode]
    print_table(
        f"Co-tenant batches of {len(programs)} programs "
        f"(widths {min(widths)}-{max(widths)}) on {device.name}, "
        f"{args.shots} shots, {cores} cores, {args.workers} workers, "
        f"estimated {est_ms:.0f} ms, a fresh batch per round",
        ["path", "best-of-%d(ms)" % repeats, "vs baseline",
         "bit-identical"],
        rows)

    costs = width_costs(device, depth, args.shots, args.seed, repeats)
    print_table(
        f"Serial per-program cost by width (depth {depth}, "
        f"{args.shots} shots)",
        ["width", "ms/program"],
        [[w, f"{ms:.2f}"] for w, ms in costs.items()])
    per_program_ms = best["per_program"] * 1e3
    parallelism = min(cores, args.workers)
    # process = serial + overhead - per_program * (1 - 1/parallelism)
    overhead_ms = ((timings["process_s"] - timings["serial_s"]) * 1e3
                   + per_program_ms * (1 - 1 / parallelism))
    # The pool wins once work > overhead + work / parallelism.
    breakeven_ms = (overhead_ms * parallelism / (parallelism - 1)
                    if parallelism > 1 else None)
    print(f"per-program half {per_program_ms:.1f} ms of the serial batch; "
          f"process pool overhead {overhead_ms:.1f} ms per batch, so the "
          f"pool breaks even at {breakeven_ms or float('inf'):.0f} ms of "
          f"per-program work ({parallelism} parallel workers)")

    auto_speedup = baseline_s / timings["auto_s"]
    process_speedup = baseline_s / timings["process_s"]
    memo_speedup = baseline_s / timings["memo_s"]
    payload = {
        "bench": "bench_execution",
        "device": device.name,
        "programs": len(programs),
        "widths": widths,
        "shots": args.shots,
        "seed": args.seed,
        "smoke": bool(args.smoke),
        "cores": cores,
        "workers": args.workers,
        "repeats": repeats,
        "estimated_batch_ms": est_ms,
        "auto_route": auto_route,
        "auto_speedup": auto_speedup,
        "process_speedup": process_speedup,
        "memo_speedup": memo_speedup,
        "bit_identical": identical_everywhere,
        "floor": SPEEDUP_FLOOR,
        "width_cost_ms": costs,
        "per_program_ms": per_program_ms,
        "pool_overhead_ms": overhead_ms,
        "breakeven_batch_ms": breakeven_ms,
        **timings,
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")

    if not identical_everywhere:
        print("FAIL: a sharded route diverged from the serial baseline "
              "(bit-identity is the tentpole invariant)", file=sys.stderr)
        return 1
    print("OK: every route is bit-identical to the serial baseline")

    print(f"auto route ({auto_route}) speedup over baseline: "
          f"{auto_speedup:.2f}x (floor {SPEEDUP_FLOOR:g}x, "
          f"{cores} cores); explicit process: {process_speedup:.2f}x")
    if auto_speedup < SPEEDUP_FLOOR:
        print(f"FAIL: auto execution route at {auto_speedup:.2f}x did "
              f"not reach the {SPEEDUP_FLOOR:g}x floor — the measured "
              "route table picked a losing worker kind", file=sys.stderr)
        return 1
    print(f"OK: auto execution route >= {SPEEDUP_FLOOR:g}x of serial")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
