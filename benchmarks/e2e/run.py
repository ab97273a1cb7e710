"""Canonical end-to-end benchmark of the serving simulator.

    python3 benchmarks/e2e/run.py --seed 0                  # all workloads
    python3 benchmarks/e2e/run.py --workload imc-zipf-hits --seed 0 --trace 0

Each workload runs in its own fresh child process (single-threaded BLAS,
``PYTHONHASHSEED=0``), one after another.  A child does one warm-up rep,
then timed reps until ``--seconds`` have passed (at least ``MIN_REPS``).
Every rep rebuilds everything from the seed (timed as set-up) and then
times ``session.run(requests)`` plus ``result.report``.  From the host's
side the load is a closed loop -- one caller, one session at a time --
while inside the simulation traffic is open-loop on its own arrival
schedule.  Every rep's outputs are hashed; all reps must agree, and at the
seeds pinned in ``golden.json`` they must equal the pinned hashes.

With ``--trace 1`` (the default) a separate traced rep follows: benchmark
wrappers around public functions record host-time spans
(:mod:`e2e_trace`), giving the per-layer self times and the tracing
overhead.  End-to-end metrics come only from the untraced reps.

Results land in ``--out`` (default ``benchmarks/e2e/out/``):
``<workload>.seed<S>.json`` and ``<workload>.seed<S>.trace.json``.  The
last line of standard output is one JSON object: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The exit
code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
REPO = HERE.parent.parent
GOLDEN = HERE / "golden.json"
BENCHMARK = REPO / "BENCHMARK.json"

#: Timed reps per child, whatever ``--seconds`` says.
MIN_REPS = 5
#: Child environment: one BLAS thread, a fixed string-hash seed.
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


# -- child: one workload, one process ---------------------------------------


def _rep(setup, seed, smoke, check):
    """Set up and run once; returns (setup s, run s, outputs ok, sim, N).

    Nothing of the rep outlives the call, and the previous rep's garbage
    is collected before the clock starts.
    """
    gc.collect()
    start = time.perf_counter()
    prepared = setup(seed, smoke)
    ready = time.perf_counter()
    result = prepared.run()
    done = time.perf_counter()
    ok = check(prepared, result)
    return ready - start, done - ready, ok, prepared.sim(result), prepared.num_requests


def _child(args) -> dict:
    import resource

    sys.path.insert(0, str(REPO / "src"))
    from e2e_workloads import WORKLOADS

    setup = WORKLOADS[args.workload]
    pinned = {} if args.smoke else json.loads(GOLDEN.read_text()).get(args.workload, {})
    expected = golden = pinned.get(str(args.seed))
    setup_s, run_s = [], []
    attempted = failed = 0

    def check(prepared, result) -> bool:
        nonlocal expected
        digest = prepared.digest(result)
        if expected is None:
            expected = digest
        if digest != expected:
            print(
                f"{args.workload}: output digest {digest} != expected {expected}",
                file=sys.stderr,
            )
            return False
        return True

    if args.smoke:
        min_reps, seconds = 1, 0.0
    else:
        min_reps, seconds = MIN_REPS, args.seconds
        warm_up = _rep(setup, args.seed, args.smoke, check)
        attempted += 1
        failed += 0 if warm_up[2] else 1
    started = time.perf_counter()
    while len(run_s) < min_reps or time.perf_counter() - started < seconds:
        setup_time, run_time, ok, sim, num_requests = _rep(
            setup, args.seed, args.smoke, check
        )
        attempted += 1
        failed += 0 if ok else 1
        setup_s.append(setup_time)
        run_s.append(run_time)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "attempted": attempted,
        "failed": failed,
        "digest": expected,
        "golden": golden,
        "num_requests": num_requests,
        "setup_s": setup_s,
        "run_s": run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_p95_ms": sim[0],
        "sim_energy_per_request_uj": sim[1],
    }
    if args.trace:
        report.update(_traced_rep(args, setup, statistics.median(run_s), check))
        report["attempted"] += 1
        report["failed"] += 0 if report["traced_digest_ok"] else 1
    return report


def _traced_rep(args, setup, untraced_run_s, check) -> dict:
    from e2e_trace import layer_metrics, traced_rep

    gc.collect()
    prepared, result, run_s, trace = traced_rep(setup, args.seed, args.smoke)
    ok = check(prepared, result)
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    trace.write_chrome(out / f"{args.workload}.seed{args.seed}.trace.json")
    layers = layer_metrics(trace)
    layers["bench.trace_overhead"] = run_s / untraced_run_s - 1.0
    return {"traced_digest_ok": ok, "layers": layers}


# -- parent: spawn, collect, report ------------------------------------------


def _run_child(args, workload: str) -> dict:
    command = [
        sys.executable,
        str(pathlib.Path(__file__).resolve()),
        "--child",
        "--workload",
        workload,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
        "--trace",
        str(args.trace),
        "--out",
        str(args.out),
    ]
    if args.smoke:
        command.append("--smoke")
    env = dict(os.environ, **CHILD_ENV)
    completed = subprocess.run(
        command, env=env, stdout=subprocess.PIPE, text=True, check=False
    )
    if completed.returncode != 0:
        raise SystemExit(
            f"{workload}: child exited with code {completed.returncode}"
        )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _metric(value, unit, **extra) -> dict:
    return dict(value=value, unit=unit, **extra)


def end_to_end(child: dict) -> dict:
    """The end-to-end metrics of one workload from its child's report."""
    runs, setups = child["run_s"], child["setup_s"]
    throughputs = [child["num_requests"] / value for value in runs]
    q1, q3 = _quartiles(throughputs)
    return {
        "requests_per_host_s": _metric(
            child["num_requests"] / statistics.median(runs),
            "req/s",
            q1=q1,
            q3=q3,
            n=len(runs),
        ),
        "setup_s": _metric(statistics.median(setups), "s", n=len(setups)),
        "peak_rss_mb": _metric(child["peak_rss_mb"], "MB"),
        "failed_share": _metric(child["failed"] / child["attempted"], "fraction"),
        "sim_p95_ms": _metric(child["sim_p95_ms"], "ms"),
        "sim_energy_per_request_uj": _metric(
            child["sim_energy_per_request_uj"], "uJ"
        ),
    }


def host_fingerprint() -> dict:
    """Where a measurement was taken (git revision only if readable)."""
    import numpy

    git = REPO / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        revision = (git / head[5:]).read_text().strip() if head.startswith("ref: ") else head
    except OSError:
        revision = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": CHILD_ENV["OPENBLAS_NUM_THREADS"],
        "machine": platform.machine(),
        "git_revision": revision,
    }


def _print_workload(name: str, child: dict, metrics: dict) -> None:
    print(
        f"== {name}  seed={child['seed']}  requests/rep={child['num_requests']}  "
        f"timed reps={len(child['run_s'])}  digest={str(child['digest'])[:16]}"
    )
    for key, metric in metrics.items():
        extra = ""
        if "q1" in metric:
            extra = f"  (q1 {metric['q1']:.6g}, q3 {metric['q3']:.6g}, n={metric['n']})"
        elif "n" in metric:
            extra = f"  (median of n={metric['n']})"
        print(f"  {key:<34s} {metric['value']:>14.6g} {metric['unit']}{extra}")
    layers = child.get("layers")
    if layers:
        root = layers["trace.root_s"]
        print("  per-layer (traced rep; *_s = self time, % of root span):")
        for key, value in layers.items():
            share = f"{100.0 * value / root:6.2f}%" if key.endswith("_s") else ""
            print(f"    {key:<44s} {value:>14.6g} {share}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help="a name from BENCHMARK.json, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, one rep")
    parser.add_argument("--out", default=str(HERE / "out"))
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        print(json.dumps(_child(args)))
        return 0

    spec = json.loads(BENCHMARK.read_text())
    names = [workload["name"] for workload in spec["workloads"]]
    if args.workload != "all":
        if args.workload not in names:
            parser.error(f"unknown workload {args.workload!r}; choose from {names}")
        names = [args.workload]
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    fingerprint = host_fingerprint()
    correct = True
    attempted = failed = 0
    final = {}
    for name in names:
        child = _run_child(args, name)
        metrics = end_to_end(child)
        _print_workload(name, child, metrics)
        attempted += child["attempted"]
        failed += child["failed"]
        correct = correct and child["failed"] == 0
        record = dict(child, metrics=metrics, host=fingerprint)
        (out / f"{name}.seed{args.seed}.json").write_text(json.dumps(record, indent=1))
        if args.trace:
            wanted = {entry["name"]: entry["unit"] for entry in spec["per_layer"]}
            values = child.get("layers", {})
        else:
            wanted = {entry["name"]: entry["unit"] for entry in spec["end_to_end"]}
            values = {key: metric["value"] for key, metric in metrics.items()}
        prefix = "" if len(names) == 1 else f"{name}/"
        for key, unit in wanted.items():
            final[prefix + key] = {"value": values[key], "unit": unit}
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": final,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
