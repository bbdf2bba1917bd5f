"""Paper-scale serving benchmark: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload paper-overload --seed 0 --seconds 20 --trace 0

``--trace 0`` times set-up several times (median ``setup_s``), then runs
untraced rounds of the workload until ``--seconds`` have passed and
reports the end-to-end metrics.  Set-up and throughput are timed at a
reference host speed, which a probe measures during the timed blocks
(see ``hostspeed.py``); their plain wall-time values are printed too.
``--trace 1`` runs one untraced round as the reference, then traced
rounds (spans around every layer, see ``spans.py``) and reports the
per-layer metrics; the spans of the first traced round are written to
``.perfbench_out/``.  Both check outputs: request conservation on every
simulated run, per-tenant sums against the global ledger, identical
ledger digests across repeats of the seed and between traced and
untraced runs, and server responses against a solo decode.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``attempted``
counts the requests offered in the measured rounds; ``failed`` counts
those the benchmark could not complete correctly (see
``summary.failed_count``).  ``--tiny`` shrinks every workload to run in
seconds (used by the benchmark's tests).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench_out"


def _cap_blas_threads() -> int:
    """One BLAS thread, set before NumPy loads; returns the count.

    On the 2-vCPU host a second thread sped the server's drain by about
    6% (454 vs 429 tokens/s over 21 and 10 drains) but tied its time to the
    load on both vCPUs and to whether the idle thread was still spinning
    when work came: the NumPy probe then stopped tracking the drain's
    speed (see ``hostspeed.py``).
    """
    threads = 1
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def _load_params(workload: str, tiny: bool) -> tuple[dict, dict]:
    all_params = json.loads((HERE / "params.json").read_text())
    params = dict(all_params["workloads"][workload])
    if tiny:
        params.update(all_params["tiny"].get(workload, {}))
    return all_params, params


def _parse(argv: list[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("paper-overload", "planes-chaos", "server-numpy"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    return ap.parse_args(argv)


def main(argv: list[str]) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {src}; run from the "
              "repository root", file=sys.stderr)
        return 2
    all_params, params = _load_params(args.workload, args.tiny)
    blas = _cap_blas_threads()
    sys.path.insert(0, str(src))

    import harness
    import summary
    workload = harness.WORKLOADS[args.workload](
        params, args.seed, host_clock=args.trace == 0)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"blas_threads={blas} tiny={args.tiny}")
    setups = [workload.timed_setup() for _ in range(all_params["setup_repeats"])]
    workload.warm_up()
    start = time.perf_counter()
    round_s: list[float] = []

    def timed_round(rec=None, loops=None):
        t0 = time.perf_counter()
        runs = workload.run_round(rec, loops)
        round_s.append(time.perf_counter() - t0)
        return runs

    def time_left() -> bool:
        """Whether another round, as long as the last, fits in ``--seconds``."""
        return time.perf_counter() - start + round_s[-1] <= args.seconds

    record: dict = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "blas_threads": blas, "params": params, "setup_s": setups,
    }
    if args.trace == 0:
        rounds = [timed_round()]
        while time_left():
            rounds.append(timed_round())
        measured = [run for rnd in rounds for run in rnd]
        # Repeats of the seed must reproduce the first round's ledgers; a
        # single round is checked by running its first loop once more.
        repeats = rounds[1:] or [workload.run_round(loops=[rounds[0][0].loop])]
        digest_ok, digest_n = summary.digest_matches(repeats, rounds[0])
        metrics = summary.end_to_end(params, [ref for _, ref in setups], rounds, repeats)
        catalog = summary.END_TO_END
        wall = summary.end_to_end(params, [w for w, _ in setups], rounds, repeats,
                                  seconds="wall_s")
        clock = workload.clock
        print(f"  in plain wall time: setup_s = {wall['setup_s']:.6g} s, tokens_per_s = "
              f"{wall['tokens_per_s']:.6g} tokens/s; host probe median "
              f"{1000 * statistics.median(clock.history):.3f} ms over "
              f"{len(clock.history)} probes, reference {1000 * clock.reference_s:.3f} ms")
        record["wall_metrics"] = wall
        named = summary.paper_metrics(args.workload, params, rounds, metrics)
        for name, value, unit, better, source in named:
            alias = f", = {source}" if source else ""
            print(f"  {name} = {value:.6g} {unit} ({better} is better{alias})")
        record["paper_metrics"] = {name: {"value": v, "unit": u} for name, v, u, _, _ in named}
    else:
        import spans

        # A subset of a workload's loops can carry the traced runs; the
        # untraced reference skips loops paced by an arrival schedule.
        loops = params.get("trace_loops")
        reference = timed_round(loops=params.get("trace_reference_loops", loops))
        rounds = [reference]
        traced = []
        while not traced or time_left():
            rec = spans.Recorder(
                f"{args.workload}-seed{args.seed}-round{len(traced)}",
                keep_spans=not traced,
            )
            traced.append((rec, timed_round(rec, loops)))
        measured = reference + [run for _, runs in traced for run in runs]
        metrics = summary.per_layer(reference, traced)
        catalog = summary.PER_LAYER
        digest_ok, digest_n = summary.digest_matches(
            [runs for _, runs in traced], reference)
        top = summary.top_layers(traced)
        print("  top layers by self time: " + ", ".join(
            f"{name} {secs:.3f} s" for name, secs in top))
        table = traced[0][0].engine_table
        if table:
            scale, err = summary.cost_model_fit(table)
            print(f"  engine table: {len(table)} steps, measured = {scale:.4g} x "
                  f"GPUCostModel.layout_time, mean relative error {err:.3f}")
            print("    requests rows width measured_s predicted_s")
            for row in table[:8]:
                print(f"    {row['requests']:8d} {row['rows']:4d} {row['width']:5d} "
                      f"{row['measured_s']:10.4f} {row['predicted_s']:11.4f}")
        record.update(top_layers=top, engine_table=table)
        traced[0][0].dump(OUT_DIR / f"{args.workload}-seed{args.seed}-spans.jsonl")
        rounds = [reference] + [runs for _, runs in traced]

    by_loop: dict[str, list] = {}
    for rnd in rounds:
        for run in rnd:
            by_loop.setdefault(run.loop, []).append(run)
    for runs in by_loop.values():
        walls = [r.wall_s for r in runs]
        print(f"  {summary.describe_run(runs[0])}; wall over {len(walls)} rounds: median "
              f"{statistics.median(walls):.3f} s ({min(walls):.3f}-{max(walls):.3f})")
    checks = [c for run in measured for c in run.check_failures]
    if digest_ok != digest_n:
        checks.append(f"ledger digests: {digest_ok}/{digest_n} equal the reference")
    for check in checks:
        print(f"  CHECK FAILED: {check}")
    units = {name: (unit, better) for name, unit, better in catalog}
    for name, value in metrics.items():
        unit, better = units[name]
        print(f"  {name} = {value:.6g} {unit} ({better} is better)")

    record.update(metrics=metrics, checks=checks, rounds=[
        [{k: v for k, v in vars(run).items() if k not in ("latencies_s", "extra")}
         for run in rnd] for rnd in rounds
    ])
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=repr))
    result = {
        "correct": not checks,
        "attempted": sum(run.sent for run in measured),
        "failed": summary.failed_count(measured),
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit, _ in catalog
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
