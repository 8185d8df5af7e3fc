"""Service-level benchmark: serial vs multi-programmed cloud service.

Drives the provider facade's scheduler-backed fleet backends
(:class:`repro.service.CloudBackend`, ``execute=False`` — the queue is
the object of study, not the simulated counts) with synthetic Poisson
traffic over the Table II suite and quantifies what the paper's
end-state promises — "improve the hardware throughput and reduce the
overall runtime" — at the *service* level: mean turnaround across
allocators, fleet sizes, placement policies, and arrival rates.

The acceptance gate (also run in CI via ``--smoke``): a multi-programmed
device fleet must beat serial single-device service by >= 2x on mean
turnaround for a Poisson arrival workload.  ``BENCH_scheduler.json``
keeps one summary per measured queue (jobs, makespan, mean/p50/p95/p99
turnaround, peak queue depth), not the per-job
``ScheduleOutcome.to_dict()`` traces; ``--out PATH`` writes it
elsewhere, and the knee gate still reads the committed file.

Run:  PYTHONPATH=../src python bench_scheduler.py [--smoke]
      [--sweep-fleets] [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Sequence

from conftest import print_table

import repro
from repro.core import ScheduleOutcome, SubmittedProgram
from repro.hardware import Device, ibm_melbourne, ibm_toronto
from repro.service import QuantumProvider
from repro.workloads import synthesize_traffic, traffic_rate_sweep

#: CI override knob (mirrors bench_kernels.py's KERNEL_SPEEDUP_FLOOR).
TURNAROUND_FLOOR = float(os.environ.get("SCHEDULER_SPEEDUP_FLOOR", "2.0"))

ARTIFACT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "BENCH_scheduler.json")

#: The ``ScheduleOutcome.to_dict()`` fields the artifact keeps per row.
SUMMARY_FIELDS = ("num_jobs", "makespan_ns", "mean_turnaround_ns",
                  "turnaround_p50_ns", "turnaround_p95_ns",
                  "turnaround_p99_ns", "max_queue_depth")


def fleet_devices(size: int) -> List[Device]:
    """A heterogeneous fleet: Toronto twins with distinct calibrations
    plus a Melbourne — all seeded, so runs are reproducible."""
    pool = [ibm_toronto(), ibm_toronto(seed=28), ibm_melbourne(),
            ibm_toronto(seed=29), ibm_melbourne(seed=17)]
    return pool[:size]


def run_service(
    provider: QuantumProvider,
    submissions: Sequence[SubmittedProgram],
    devices: Sequence[Device],
    allocator: str,
    threshold: float,
    policy: str = "least_loaded",
    window_ns: float = 0.0,
    max_batch_size: int | None = None,
    race_allocators: tuple | None = None,
) -> ScheduleOutcome:
    backend = provider.fleet_backend(
        devices,
        policy=policy,
        allocator=allocator,
        fidelity_threshold=threshold,
        batch_window_ns=window_ns,
        max_batch_size=max_batch_size,
        race_allocators=race_allocators,
    )
    # Schedule-only jobs: the discrete-event outcome is the measurement.
    return backend.run(submissions, execute=False).result().schedule


def summary(outcome: ScheduleOutcome) -> Dict[str, object]:
    """The artifact row of one measured queue."""
    full = outcome.to_dict()
    return {field: full[field] for field in SUMMARY_FIELDS}


def fmt_ms(ns: float) -> str:
    return f"{ns / 1e6:.2f}"


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small CI configuration (fewer programs, "
                             "one allocator) with the >=2x gate")
    parser.add_argument("--sweep-fleets", action="store_true",
                        help="also sweep the saturation knee over "
                             "heterogeneous fleet shapes beyond the "
                             "2-device config")
    parser.add_argument("--programs", type=int, default=None,
                        help="number of submissions (default 24; 12 "
                             "with --smoke)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--threshold", type=float, default=1.0,
                        help="fidelity threshold of the multi-programmed "
                             "services")
    parser.add_argument("--out", default=ARTIFACT,
                        help="where to write the JSON artifact "
                             "(default: the committed "
                             "BENCH_scheduler.json, which the knee gate "
                             "reads either way)")
    args = parser.parse_args(argv)

    num_programs = args.programs or (12 if args.smoke else 24)
    allocators = ["qucp"] if args.smoke else [
        "qucp", "qumc", "qucloud", "multiqc"]
    rates_ns = [2e5] if args.smoke else [1e5, 2e5, 1e6]
    fleet_sizes = [1, 3] if args.smoke else [1, 2, 3]

    provider = repro.provider(job_workers=1)
    artifact: Dict[str, Dict] = {}
    best_overall = 0.0
    # One shared draw across rates: every stream submits the same
    # programs in the same order, so the rate axis isolates queueing
    # pressure from workload-mix variance.
    streams = traffic_rate_sweep(num_programs, rates_ns,
                                 mix="heavy_tail", seed=args.seed)
    for rate in rates_ns:
        subs = streams[float(rate)]
        # True serial baseline: one program per hardware job.
        serial = run_service(provider, subs, fleet_devices(1), "qucp",
                             0.0, max_batch_size=1)
        rate_key = f"rate_{rate:g}"
        artifact[rate_key] = {"serial": summary(serial)}
        rows: List[List[object]] = [[
            "serial", 1, "-", 0.0, serial.num_jobs,
            fmt_ms(serial.makespan_ns), fmt_ms(serial.mean_turnaround_ns),
            fmt_ms(serial.turnaround_p99_ns), serial.max_queue_depth,
            "1.00x",
        ]]
        best: Dict[str, float] = {}
        for allocator in allocators:
            for size in fleet_sizes:
                for policy in (["least_loaded"] if size == 1 or args.smoke
                               else ["round_robin", "least_loaded",
                                     "best_fidelity"]):
                    out = run_service(provider, subs, fleet_devices(size),
                                      allocator, args.threshold,
                                      policy=policy)
                    speedup = (serial.mean_turnaround_ns
                               / out.mean_turnaround_ns)
                    artifact[rate_key][
                        f"{allocator}/fleet{size}/{policy}"
                    ] = summary(out)
                    rows.append([
                        allocator, size,
                        policy if size > 1 else "-",
                        args.threshold, out.num_jobs,
                        fmt_ms(out.makespan_ns),
                        fmt_ms(out.mean_turnaround_ns),
                        fmt_ms(out.turnaround_p99_ns),
                        out.max_queue_depth,
                        f"{speedup:.2f}x",
                    ])
                    if size > 1:
                        key = f"{allocator}/fleet{size}"
                        best[key] = max(best.get(key, 0.0), speedup)
        print_table(
            f"Poisson traffic, {num_programs} programs, "
            f"mean interarrival {rate / 1e6:g} ms",
            ["allocator", "fleet", "policy", "threshold", "jobs",
             "makespan(ms)", "turnaround(ms)", "p99(ms)", "maxQ",
             "vs serial"],
            rows)
        top = max(best.values())
        best_overall = max(best_overall, top)
        print(f"best multi-programmed fleet speedup at this rate: "
              f"{top:.2f}x")

    # --- allocator racing: the p99 tail cut and the rate sweep ---------
    # Racing qumc/qucloud challengers against the qucp primary at every
    # dispatch (a challenger's pack is committed only when it admits
    # more programs, or as many at a strictly lower mean EFS) trims the
    # turnaround tail at a loaded arrival rate.  Deterministic: the
    # winner per dispatch and the whole outcome reproduce exactly under
    # a fixed seed.  The sweep re-runs both services over the knee's
    # arrival rates and fails if racing ever raises mean turnaround.
    knee_rates = ([2e6, 5e5, 2e5, 1e5] if args.smoke
                  else [5e6, 2e6, 1e6, 5e5, 2.5e5, 1.25e5])
    race_programs = 20 if args.smoke else 40
    race_rate = 2e5
    race_subs = synthesize_traffic(
        race_programs, pattern="poisson", mean_interarrival_ns=race_rate,
        mix="heavy_tail", seed=args.seed)
    race_threshold = 0.5
    challengers = ("qumc", "qucloud")
    unraced = run_service(provider, race_subs, fleet_devices(1), "qucp",
                          race_threshold)
    raced = run_service(provider, race_subs, fleet_devices(1), "qucp",
                        race_threshold, race_allocators=challengers)
    replay = run_service(provider, race_subs, fleet_devices(1), "qucp",
                         race_threshold, race_allocators=challengers)
    reproducible = (raced.to_dict() == replay.to_dict())
    p99_cut = 1.0 - raced.turnaround_p99_ns / unraced.turnaround_p99_ns
    print_table(
        f"Allocator racing (qucp vs {'+'.join(challengers)}), "
        f"{race_programs} programs at {race_rate / 1e6:g} ms interarrival",
        ["service", "jobs", "turnaround(ms)", "p50(ms)", "p95(ms)",
         "p99(ms)", "maxQ"],
        [
            ["primary only", unraced.num_jobs,
             fmt_ms(unraced.mean_turnaround_ns),
             fmt_ms(unraced.turnaround_p50_ns),
             fmt_ms(unraced.turnaround_p95_ns),
             fmt_ms(unraced.turnaround_p99_ns),
             unraced.max_queue_depth],
            ["raced", raced.num_jobs,
             fmt_ms(raced.mean_turnaround_ns),
             fmt_ms(raced.turnaround_p50_ns),
             fmt_ms(raced.turnaround_p95_ns),
             fmt_ms(raced.turnaround_p99_ns),
             raced.max_queue_depth],
        ])
    print(f"race wins by allocator: {raced.race_wins}; p99 turnaround "
          f"cut: {p99_cut:+.1%}; reproducible replay: {reproducible}")

    race_streams = traffic_rate_sweep(race_programs, knee_rates,
                                      mix="heavy_tail", seed=args.seed)
    race_sweep: List[Dict[str, object]] = []
    race_sweep_rows: List[List[object]] = []
    race_losses: List[str] = []
    for rate in knee_rates:
        stream = race_streams[float(rate)]
        sides = {
            "unraced": run_service(provider, stream, fleet_devices(1),
                                   "qucp", race_threshold),
            "raced": run_service(provider, stream, fleet_devices(1),
                                 "qucp", race_threshold,
                                 race_allocators=challengers),
        }
        point: Dict[str, object] = {"interarrival_ns": float(rate)}
        for side, out in sides.items():
            point[side] = {
                "mean_turnaround_ns": out.mean_turnaround_ns,
                "turnaround_p50_ns": out.turnaround_p50_ns,
            }
        race_sweep.append(point)
        base = sides["unraced"].mean_turnaround_ns
        mean = sides["raced"].mean_turnaround_ns
        if mean > base:
            race_losses.append(f"{rate / 1e6:g} ms")
        race_sweep_rows.append([
            f"{rate / 1e6:g}", fmt_ms(base), fmt_ms(mean),
            f"{mean / base - 1.0:+.1%}",
            fmt_ms(sides["unraced"].turnaround_p50_ns),
            fmt_ms(sides["raced"].turnaround_p50_ns),
            sides["raced"].race_wins,
        ])
    print_table(
        f"Allocator racing across arrival rates ({race_programs} programs, "
        f"threshold {race_threshold:g})",
        ["interarrival(ms)", "primary mean(ms)", "raced mean(ms)",
         "change", "primary p50(ms)", "raced p50(ms)", "race wins"],
        race_sweep_rows)

    # --- saturation knee per dispatch policy ---------------------------
    # Sweep one shared traffic draw from near-idle to past-saturating
    # arrival rates (traffic_rate_sweep: same programs, same order, only
    # the spacing changes) for each fleet placement policy, and locate
    # the knee: the fastest arrival rate whose mean turnaround is still
    # within KNEE_FACTOR of the near-idle baseline.  Rates beyond the
    # knee are where the gateway's admission control must shed — this
    # section measures where that point sits per dispatch policy.
    knee_factor = 2.0
    knee_programs = 16 if args.smoke else 32
    knee_policies = (["least_loaded"] if args.smoke
                     else ["round_robin", "least_loaded", "best_fidelity"])
    knee_streams = traffic_rate_sweep(knee_programs, knee_rates,
                                      mix="heavy_tail", seed=args.seed)
    knee_artifact: Dict[str, Dict] = {}
    knee_rows: List[List[object]] = []
    for policy in knee_policies:
        curve = []
        for rate in knee_rates:
            # One program per hardware job: multiprogramming absorbs
            # these rates without queueing, which would push the knee
            # beyond any realistic sweep — serial jobs give the sweep a
            # real capacity ceiling (2 devices / ~1.1 ms service).
            out = run_service(provider, knee_streams[float(rate)],
                              fleet_devices(2), "qucp", args.threshold,
                              policy=policy, max_batch_size=1)
            curve.append({
                "interarrival_ns": float(rate),
                "mean_turnaround_ns": out.mean_turnaround_ns,
                "p99_turnaround_ns": out.turnaround_p99_ns,
                "max_queue_depth": out.max_queue_depth,
            })
        # The slowest rate (first entry) is the near-idle reference.
        idle = curve[0]["mean_turnaround_ns"]
        knee_ns = None
        for point in curve:
            if point["mean_turnaround_ns"] <= knee_factor * idle:
                knee_ns = point["interarrival_ns"]
        knee_artifact[policy] = {
            "curve": curve,
            "idle_turnaround_ns": idle,
            "knee_factor": knee_factor,
            "knee_interarrival_ns": knee_ns,
        }
        knee_rows.append([
            policy, fmt_ms(idle),
            " ".join(f"{p['mean_turnaround_ns'] / idle:.1f}x"
                     for p in curve),
            "-" if knee_ns is None else f"{knee_ns / 1e6:g}",
        ])
    print_table(
        f"Saturation knee (fleet of 2, qucp, {knee_programs} programs; "
        f"rates {', '.join(f'{r / 1e6:g}' for r in knee_rates)} ms)",
        ["policy", "idle turnaround(ms)", "slowdown per rate",
         "knee interarrival(ms)"],
        knee_rows)

    # --- knee sweep across heterogeneous fleet shapes ------------------
    # Same shared traffic draw and knee definition, but on larger,
    # heterogeneous fleets (Toronto twins + Melbourne): more devices
    # absorb faster arrival streams, so the knee should move left (to
    # smaller interarrival) as the fleet grows.
    fleet_sweep: Dict[str, Dict] = {}
    if args.sweep_fleets:
        sweep_shapes = [3] if args.smoke else [3, 4]
        sweep_rows: List[List[object]] = []
        for shape in sweep_shapes:
            devices = fleet_devices(shape)
            curve = []
            for rate in knee_rates:
                out = run_service(provider, knee_streams[float(rate)],
                                  devices, "qucp", args.threshold,
                                  policy="least_loaded", max_batch_size=1)
                curve.append({
                    "interarrival_ns": float(rate),
                    "mean_turnaround_ns": out.mean_turnaround_ns,
                    "p99_turnaround_ns": out.turnaround_p99_ns,
                    "max_queue_depth": out.max_queue_depth,
                })
            idle = curve[0]["mean_turnaround_ns"]
            knee_ns = None
            for point in curve:
                if point["mean_turnaround_ns"] <= knee_factor * idle:
                    knee_ns = point["interarrival_ns"]
            fleet_sweep[f"fleet{shape}"] = {
                "devices": [d.name for d in devices],
                "curve": curve,
                "idle_turnaround_ns": idle,
                "knee_factor": knee_factor,
                "knee_interarrival_ns": knee_ns,
            }
            sweep_rows.append([
                f"fleet{shape}", "+".join(d.name for d in devices),
                fmt_ms(idle),
                " ".join(f"{p['mean_turnaround_ns'] / idle:.1f}x"
                         for p in curve),
                "-" if knee_ns is None else f"{knee_ns / 1e6:g}",
            ])
        print_table(
            "Saturation knee across heterogeneous fleet shapes "
            "(least_loaded, qucp)",
            ["fleet", "devices", "idle turnaround(ms)",
             "slowdown per rate", "knee interarrival(ms)"],
            sweep_rows)

    # --- knee regression gate vs the committed artifact ----------------
    # The knee is the *fastest* (smallest) interarrival the service
    # absorbs without doubling turnaround; a regression is the knee
    # GROWING — saturating at a slower arrival rate than the committed
    # baseline.  Read the baseline before overwriting the artifact.
    knee_regressions: List[str] = []
    committed_baseline: Dict = {}
    if os.path.exists(ARTIFACT):
        try:
            with open(ARTIFACT) as fh:
                committed_baseline = json.load(fh)
        except (OSError, json.JSONDecodeError):
            committed_baseline = {}
    baseline_policies = (committed_baseline.get("saturation_knee", {})
                         .get("policies", {}))
    for policy, data in knee_artifact.items():
        base = baseline_policies.get(policy, {}).get("knee_interarrival_ns")
        if base is None:
            continue
        new = data["knee_interarrival_ns"]
        if new is None or float(new) > float(base):
            knee_regressions.append(
                f"{policy}: knee {base / 1e6:g} ms -> "
                f"{'none' if new is None else f'{new / 1e6:g} ms'}")

    with open(args.out, "w") as fh:
        json.dump({"programs": num_programs, "threshold": args.threshold,
                   "best_speedup": best_overall, "outcomes": artifact,
                   "saturation_knee": {
                       "programs": knee_programs,
                       "rates_ns": [float(r) for r in knee_rates],
                       "policies": knee_artifact,
                   },
                   "fleet_sweep": fleet_sweep,
                   "racing": {
                       "programs": race_programs,
                       "rate_ns": race_rate,
                       "threshold": race_threshold,
                       "challengers": list(challengers),
                       "unraced": summary(unraced),
                       "raced": summary(raced),
                       "p99_cut": p99_cut,
                       "reproducible": reproducible,
                       "sweep": race_sweep,
                   }},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"\nwrote {args.out}")

    if not reproducible:
        print("FAIL: raced schedule did not replay bit-identically "
              "under the fixed seed", file=sys.stderr)
        return 1
    print("OK: raced schedule replays bit-identically (deterministic "
          "winner under fixed seed)")

    if race_losses:
        print("FAIL: racing raised mean turnaround over primary-only at "
              + ", ".join(race_losses), file=sys.stderr)
        return 1
    print("OK: raced mean turnaround at or below primary-only at every "
          "swept rate")

    if knee_regressions:
        print("FAIL: saturation knee regressed vs the committed "
              "BENCH_scheduler.json: " + "; ".join(knee_regressions),
              file=sys.stderr)
        return 1
    if baseline_policies:
        print("OK: saturation knee at or better than the committed "
              "baseline for every measured policy")

    # The gate holds at the loaded operating point: near-idle rates are
    # reported for the shape (speedup -> 1x as the queue empties) but a
    # saturated Poisson stream must show >= TURNAROUND_FLOOR.
    print(f"best multi-programmed fleet speedup: {best_overall:.2f}x "
          f"(floor {TURNAROUND_FLOOR:g}x)")
    if best_overall < TURNAROUND_FLOOR:
        print("FAIL: multi-programmed fleet service did not reach the "
              f"{TURNAROUND_FLOOR:g}x mean-turnaround floor",
              file=sys.stderr)
        return 1
    print("\nOK: multi-programmed fleet service beats serial "
          f"single-device service by >= {TURNAROUND_FLOOR:g}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
