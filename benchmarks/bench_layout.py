"""Cold-miss layout-search benchmark: vectorized vs reference search.

A cache-miss compile is dominated by the exhaustive (<= 7 qubit) layout
permutation search, not graph work — the distance tables are already
cached on the :class:`~repro.transpiler.DeviceContext`.  This bench
times :func:`~repro.transpiler.noise_aware_layout` over a partition mix
shaped like parallel-execution traffic (4–6 qubit induced partitions of
ibm_toronto plus small standalone devices, with and without
calibration) under both engines:

- **reference** — the historical scalar loop over
  ``itertools.permutations`` (``search_mode="reference"``);
- **vectorized** — the memoized permutation table scored with numpy
  gathers over the context's reliability matrix and readout vector,
  pruned by interaction hop budget (``search_mode="vectorized"``).

Every pair of results is checked for cost equality while timing, so the
speedup is never bought with a worse layout.  The acceptance gate (also
run in CI via ``--smoke``): vectorized >= 4x over reference on the
6-qubit partition mix.  Timings land in ``BENCH_layout.json`` (or
``--out PATH``).

Run:  PYTHONPATH=../src python bench_layout.py [--smoke] [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from typing import List, Sequence, Tuple

import numpy as np

from conftest import connected_subset, print_table

from repro.circuits import QuantumCircuit, random_circuit
from repro.hardware import ibm_toronto, linear_device
from repro.transpiler import (
    DeviceContext,
    interaction_counts,
    layout_cost,
    noise_aware_layout,
)

#: CI override knob (mirrors TRANSPILE_SPEEDUP_FLOOR and friends).
SPEEDUP_FLOOR = float(os.environ.get("LAYOUT_SPEEDUP_FLOOR", "4.0"))

ARTIFACT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "BENCH_layout.json")

Case = Tuple[QuantumCircuit, DeviceContext]


def partition_mix(num_cases: int, seed: int) -> List[Case]:
    """(measured circuit, partition sub-context) cold-miss requests.

    Mirrors ``transpile_for_partition``'s layout step: 4–6 qubit
    induced partitions of ibm_toronto (calibrated) interleaved with
    small standalone devices, one of them calibration-free.
    """
    rng = np.random.default_rng(seed)
    toronto = ibm_toronto()
    device_ctx = DeviceContext(toronto.coupling, toronto.calibration)
    bare = linear_device(6, seed=11)
    bare_ctx = DeviceContext(bare.coupling, None)
    cal_ctx = DeviceContext(bare.coupling, bare.calibration)

    cases: List[Case] = []
    for i in range(num_cases):
        size = int(rng.integers(4, 7))
        n_logical = int(rng.integers(max(2, size - 2), size + 1))
        circuit = random_circuit(n_logical, int(rng.integers(8, 16)),
                                 seed=seed * 1000 + i)
        circuit.measure_all()
        which = i % 3
        if which == 0:
            start = int(rng.integers(toronto.num_qubits))
            part = connected_subset(toronto.coupling, start, size)
            ctx = device_ctx.partition_context(part)
        elif which == 1:
            ctx = cal_ctx
        else:
            ctx = bare_ctx
        cases.append((circuit, ctx))
    return cases


def run_mode(cases: Sequence[Case], mode: str) -> float:
    start = time.perf_counter()
    for circuit, ctx in cases:
        noise_aware_layout(circuit, ctx.coupling, ctx.calibration,
                           context=ctx, search_mode=mode)
    return time.perf_counter() - start


def check_cost_equivalence(cases: Sequence[Case]) -> None:
    """Both engines must return a cost-minimal layout on every case."""
    for circuit, ctx in cases:
        inter = interaction_counts(circuit)
        measured = sorted({inst.qubits[0] for inst in circuit
                           if inst.name == "measure"})
        vec = noise_aware_layout(circuit, ctx.coupling, ctx.calibration,
                                 context=ctx, search_mode="vectorized")
        ref = noise_aware_layout(circuit, ctx.coupling, ctx.calibration,
                                 context=ctx, search_mode="reference")
        cv = layout_cost(vec, inter, ctx.reliability_distance,
                         ctx.calibration, measured)
        cr = layout_cost(ref, inter, ctx.reliability_distance,
                         ctx.calibration, measured)
        # Relative tolerance: UNREACHABLE (1e9) terms put costs at a
        # magnitude where vectorized-vs-scalar summation order rounds
        # differently in the last ulps.
        if not math.isclose(cv, cr, rel_tol=1e-9, abs_tol=1e-9):
            raise AssertionError(
                f"vectorized cost {cv} != reference cost {cr} "
                f"on {circuit.name}")


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small CI configuration with the speedup "
                             "gate")
    parser.add_argument("--cases", type=int, default=None,
                        help="number of layout requests (default 120; "
                             "48 with --smoke)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timed passes over the mix (default 5; 3 "
                             "with --smoke)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", default=ARTIFACT,
                        help="where to write the JSON artifact "
                             "(default: the committed BENCH_layout.json)")
    args = parser.parse_args(argv)

    num_cases = args.cases or (48 if args.smoke else 120)
    repeats = args.repeats or (3 if args.smoke else 5)
    cases = partition_mix(num_cases, args.seed)

    check_cost_equivalence(cases)
    # Untimed warm-up: the permutation tables and context matrices are
    # shared cold-path state; both engines get them warm so the timing
    # isolates the search itself.
    run_mode(cases, "reference")
    run_mode(cases, "vectorized")

    ref_s = min(run_mode(cases, "reference") for _ in range(repeats))
    vec_s = min(run_mode(cases, "vectorized") for _ in range(repeats))
    speedup = ref_s / vec_s

    n = len(cases)
    print_table(
        f"Cold-miss exhaustive layout search, {n} requests "
        f"(4-6q partition mix, best of {repeats})",
        ["engine", "total(ms)", "per-request(us)", "speedup"],
        [
            ["reference (scalar loop)", f"{ref_s * 1e3:.1f}",
             f"{ref_s / n * 1e6:.0f}", "1.00x"],
            ["vectorized (pruned numpy)", f"{vec_s * 1e3:.1f}",
             f"{vec_s / n * 1e6:.0f}", f"{speedup:.2f}x"],
        ])

    payload = {
        "bench": "bench_layout",
        "cases": n,
        "repeats": repeats,
        "seed": args.seed,
        "smoke": bool(args.smoke),
        "reference_s": ref_s,
        "vectorized_s": vec_s,
        "speedup": speedup,
        "floor": SPEEDUP_FLOOR,
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")

    print(f"\nvectorized-vs-reference layout-search speedup: "
          f"{speedup:.2f}x (floor {SPEEDUP_FLOOR:g}x)")
    if speedup < SPEEDUP_FLOOR:
        print("FAIL: vectorized layout search did not reach the "
              f"{SPEEDUP_FLOOR:g}x floor", file=sys.stderr)
        return 1
    print(f"OK: vectorized layout search beats the scalar reference "
          f"by >= {SPEEDUP_FLOOR:g}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
