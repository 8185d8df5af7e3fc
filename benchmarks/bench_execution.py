"""Execution benchmark: the library batch path vs the service.

The multi-programming service spends its steady-state cycles *running*
programs: every dispatched hardware job is one
:func:`repro.sim.executor.run_parallel` batch.  This bench times the
:class:`~repro.core.ExecutionService` over that unit of work — a wide
co-tenant batch on a 65q device, per-program cost in the tens of
milliseconds — against the library's memo-free ``run_parallel``.

Two gates, both CI-run via ``--smoke``:

- the service is **bit-identical** to the library path — counts,
  probabilities, clbit records — on every batch (hard gate, any host);
- the service's speedup over the library path is >=
  ``EXECUTION_SPEEDUP_FLOOR`` (default 0.85: both run the same inline
  simulation, so the honest answer is ~1.0x and the floor catches
  overhead the memos add to a miss; the artifact records ``cores``).

The service memoizes repeated programs, so every timed round runs a
fresh batch that no service has seen (the same gates with new rotation
angles): the service row measures simulation, not memo hits.  One
extra row times a repeated batch, which the service serves from its
memo.

Timings land in ``BENCH_execution.json`` (or ``--out PATH``).

Run:  PYTHONPATH=../src python bench_execution.py [--smoke] [--out PATH]
"""

from __future__ import annotations

import argparse
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
from repro.sim.executor import Program, run_parallel

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


def timed_paths(batches, device, shots: int, seed: int,
                repeats: int) -> Tuple[Dict[str, float], bool]:
    """Best-of wall clock (s) of the library ``run_parallel`` baseline
    and the service, and whether the service was bit-identical to the
    baseline on every batch.

    Both get one untimed warm-up on ``batches[0]``, then they are timed
    round-robin, one fresh batch per round, so host-speed drift lands on
    both alike and no round is served from the service's memo.  Last,
    ``memo`` times the service re-running the final batch, which its
    memo serves.
    """
    service = ExecutionService()
    best: Dict[str, float] = {}
    same = True
    for round_, programs in enumerate(batches[:repeats + 1]):
        runs = {
            "baseline": functools.partial(
                run_parallel, programs, device, shots=shots, seed=seed),
            "service": functools.partial(
                service.run_parallel, programs, device, shots=shots,
                seed=seed),
        }
        # Untimed: builds the fresh angles' gate superoperators in the
        # shared table, which the first timed path would otherwise pay
        # for alone.
        runs["baseline"]()
        results = {}
        for name, run in runs.items():
            start = time.perf_counter()
            results[name] = run()
            if round_:  # round 0 is the warm-up
                best[name] = min(best.get(name, float("inf")),
                                 time.perf_counter() - start)
        same = same and identical(results["service"], results["baseline"])
    if service.stats["memo_hits"]:
        # A program without an rz cannot be made fresh.
        raise RuntimeError(
            "a timed service round was served from the memo; pick a "
            "--seed whose programs all have an rz")
    memo = functools.partial(service.run_parallel, batches[repeats], device,
                             shots=shots, seed=seed)
    best["memo"] = _best_ms(memo, repeats) / 1e3
    same = same and identical(memo(), results["baseline"])
    return best, same


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small CI configuration with the identity "
                             "and floor gates")
    parser.add_argument("--shots", type=int, default=4096)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeats", type=int, default=None,
                        help="timed repetitions per path (best-of)")
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
        # Deep enough to match transpiled service workloads; shallow
        # NN circuits undershoot their per-program cost.
        device = ibm_manhattan()
        sizes = [7, 6, 6, 6, 5, 5, 5, 4, 4, 4, 3, 3]
        depth = 72
    batches = cotenant_batches(device, sizes, args.seed, depth,
                               repeats + 1)
    widths = [len(p.partition) for p in batches[0]]

    best, identical_everywhere = timed_paths(
        batches, device, args.shots, args.seed, repeats)
    baseline_s = best["baseline"]
    service_speedup = baseline_s / best["service"]
    memo_speedup = baseline_s / best["memo"]

    same = "yes" if identical_everywhere else "NO"
    print_table(
        f"Co-tenant batches of {len(widths)} programs "
        f"(widths {min(widths)}-{max(widths)}) on {device.name}, "
        f"{args.shots} shots, {cores} cores, a fresh batch per round",
        ["path", "best-of-%d(ms)" % repeats, "vs baseline",
         "bit-identical"],
        [["run_parallel (library baseline)", f"{baseline_s * 1e3:.1f}",
          "1.00x", "yes"],
         ["service", f"{best['service'] * 1e3:.1f}",
          f"{service_speedup:.2f}x", same],
         ["service, repeated batch (memo hits)", f"{best['memo'] * 1e3:.1f}",
          f"{memo_speedup:.2f}x", same]])

    payload = {
        "bench": "bench_execution",
        "device": device.name,
        "programs": len(widths),
        "widths": widths,
        "shots": args.shots,
        "seed": args.seed,
        "smoke": bool(args.smoke),
        "cores": cores,
        "repeats": repeats,
        "service_speedup": service_speedup,
        "memo_speedup": memo_speedup,
        "bit_identical": identical_everywhere,
        "floor": SPEEDUP_FLOOR,
        "baseline_s": baseline_s,
        "service_s": best["service"],
        "memo_s": best["memo"],
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")

    if not identical_everywhere:
        print("FAIL: the service diverged from the run_parallel baseline "
              "(bit-identity is the service's contract)", file=sys.stderr)
        return 1
    print("OK: the service is bit-identical to the run_parallel baseline")

    print(f"service speedup over baseline: {service_speedup:.2f}x "
          f"(floor {SPEEDUP_FLOOR:g}x, {cores} cores)")
    if service_speedup < SPEEDUP_FLOOR:
        print(f"FAIL: the service at {service_speedup:.2f}x did not "
              f"reach the {SPEEDUP_FLOOR:g}x floor", file=sys.stderr)
        return 1
    print(f"OK: the service >= {SPEEDUP_FLOOR:g}x of the baseline")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
