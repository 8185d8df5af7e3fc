"""Runtime reduction (paper Sec. I/II + abstract).

The paper's motivating claim: parallel execution "improves the hardware
throughput and reduces the overall runtime", with up to 6x reduction for
the 6-copy Manhattan experiments.  Two benches:

1. the pure queueing arithmetic (``batched_speedup``);
2. the online multi-user scheduler with real QuCP allocations on
   Toronto, serial vs batched service.
"""

from conftest import print_table

from repro.core import CloudScheduler, SubmittedProgram, batched_speedup
from repro.workloads import workload


def test_runtime_reduction_six_copies(benchmark):
    """Up to six-fold runtime reduction for 6-way batching."""
    rows = benchmark.pedantic(
        lambda: [
            [k, f"{batched_speedup(6, k, 1e6)['runtime_reduction']:.2f}x"]
            for k in (1, 2, 3, 6)
        ],
        rounds=1, iterations=1)
    print_table("Runtime reduction vs batch size (6 programs)",
                ["batch size", "reduction"], rows)
    assert rows[-1][1] == "6.00x"   # the paper's "up to six times"


def test_online_scheduler_speedup(benchmark, toronto):
    """Multi-user batching beats serial service on makespan and wait."""
    names = ["adder", "fred", "lin", "4mod", "bell", "qec", "adder",
             "var"]
    subs = [
        SubmittedProgram(workload(n).circuit(), arrival_ns=i * 5e4,
                         user=f"user{i}")
        for i, n in enumerate(names)
    ]

    def run():
        serial = CloudScheduler(toronto, fidelity_threshold=0.0,
                                job_overhead_ns=1e6).schedule(subs)
        batched = CloudScheduler(toronto, fidelity_threshold=1.0,
                                 job_overhead_ns=1e6).schedule(subs)
        return serial, batched

    serial, batched = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        ["serial (th=0, identical best regions contended)",
         serial.num_jobs, f"{serial.makespan_ns / 1e6:.2f}",
         f"{serial.mean_turnaround_ns / 1e6:.2f}",
         f"{serial.mean_throughput:.1%}"],
        ["batched (th=1)", batched.num_jobs,
         f"{batched.makespan_ns / 1e6:.2f}",
         f"{batched.mean_turnaround_ns / 1e6:.2f}",
         f"{batched.mean_throughput:.1%}"],
    ]
    print_table(
        "Online scheduling: 8 user submissions on Toronto",
        ["service", "jobs", "makespan ms", "mean turnaround ms",
         "mean throughput"],
        rows)
    reduction = serial.makespan_ns / batched.makespan_ns
    print(f"runtime reduction: {reduction:.2f}x")

    assert batched.num_jobs < serial.num_jobs
    assert batched.makespan_ns < serial.makespan_ns
    assert batched.mean_throughput > serial.mean_throughput
