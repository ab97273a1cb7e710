"""Compare two sets of benchmark runs: parent (A) against change (B).

    python3 benchmarks/e2e/compare.py 'A/*.json' 'B/*.json'
    python3 benchmarks/e2e/compare.py A B          # directories of results

Each side is a glob or a directory of ``<workload>.seed<S>.json`` files
written by ``run.py --out``.  Runs of one workload are paired in file-name
order, so run the two sides alternately, one pair per seed or repeat.
For every end-to-end metric in ``BENCHMARK.json`` and every workload this
prints each side's median and quartiles, the share of pairs B wins, and a
verdict:

* ``improved`` -- B wins at least 9 of 10 pairs and the medians differ by
  more than A's own interquartile range;
* ``regressed`` -- B's median is worse than A's by more than the bound;
* ``unresolved`` -- A's spread (IQR / median) is wider than the bound, so
  no-change cannot be shown, unless every B run beats every A run;
* ``unchanged`` -- otherwise.

No host-speed normalisation is applied: both sides must come from the same
host.  Simulated outputs are compared by digest at matching seeds, and the
traced runs give a per-layer self-time diff.  Exit code 1 when any
metric regressed or any digest differs.
"""

from __future__ import annotations

import glob
import json
import pathlib
import statistics
import sys
from typing import Dict, List

BENCHMARK = pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load(side: str) -> Dict[str, List[dict]]:
    """workload -> its result records, in file-name order."""
    path = pathlib.Path(side)
    files = sorted(
        str(file) for file in path.rglob("*.json") if not file.name.endswith(".trace.json")
    ) if path.is_dir() else sorted(glob.glob(side))
    runs: Dict[str, List[dict]] = {}
    for name in files:
        record = json.loads(pathlib.Path(name).read_text())
        if "workload" in record and "metrics" in record:
            runs.setdefault(record["workload"], []).append(record)
    return runs


def _summary(values: List[float]):
    """(q1, median, q3) of one side's runs."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def verdict(a: List[float], b: List[float], better: str, bound: float) -> dict:
    """Sections 6-8 of the choosing-metrics method for one metric."""
    sign = 1.0 if better == "higher" else -1.0
    a_q1, a_med, a_q3 = _summary(a)
    b_q1, b_med, b_q3 = _summary(b)
    pairs = list(zip(a, b))
    wins = sum(1 for left, right in pairs if sign * (right - left) > 0)
    spread = (a_q3 - a_q1) / abs(a_med) if a_med else 0.0
    worse = sign * (a_med - b_med) / abs(a_med) if a_med else 0.0
    if wins >= 0.9 * len(pairs) and sign * (b_med - a_med) > a_q3 - a_q1:
        outcome = "improved"
    elif spread > bound:
        beats_all = all(sign * (right - left) > 0 for left in a for right in b)
        outcome = "unchanged" if beats_all else "unresolved"
    elif worse > bound:
        outcome = "regressed"
    else:
        outcome = "unchanged"
    return {
        "a": (a_med, a_q1, a_q3, len(a)),
        "b": (b_med, b_q1, b_q3, len(b)),
        "wins": wins,
        "pairs": len(pairs),
        "spread": spread,
        "change": -worse,
        "verdict": outcome,
    }


def layer_diff(a_runs: List[dict], b_runs: List[dict]) -> List[tuple]:
    """(layer, A median, B median) self times from the traced runs."""
    a_layers = [run["layers"] for run in a_runs if run.get("layers")]
    b_layers = [run["layers"] for run in b_runs if run.get("layers")]
    if not a_layers or not b_layers:
        return []
    rows = []
    for name in a_layers[0]:
        if name.endswith("_s") and name in b_layers[0]:
            a_med = statistics.median(layers[name] for layers in a_layers)
            b_med = statistics.median(layers[name] for layers in b_layers)
            rows.append((name, a_med, b_med))
    return sorted(rows, key=lambda row: -abs(row[2] - row[1]))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    side_a, side_b = load(argv[0]), load(argv[1])
    failing = False
    for workload in [name for name in side_a if name in side_b]:
        a_runs, b_runs = side_a[workload], side_b[workload]
        print(f"== {workload}  (A: {len(a_runs)} runs, B: {len(b_runs)} runs)")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            result = verdict(
                [run["metrics"][name]["value"] for run in a_runs],
                [run["metrics"][name]["value"] for run in b_runs],
                metric["better"],
                bound,
            )
            failing = failing or result["verdict"] == "regressed"
            a_med, a_q1, a_q3, a_n = result["a"]
            b_med, b_q1, b_q3, b_n = result["b"]
            print(
                f"  {name:<22s} A {a_med:.6g} [{a_q1:.6g}, {a_q3:.6g}] n={a_n}  "
                f"B {b_med:.6g} [{b_q1:.6g}, {b_q3:.6g}] n={b_n}  "
                f"B-vs-A {100 * result['change']:+.1f}% of A's median  "
                f"B wins {result['wins']}/{result['pairs']}  "
                f"A spread {100 * result['spread']:.1f}% (bound {100 * bound:.0f}%)  "
                f"-> {result['verdict']}"
            )
        a_digests = {run["seed"]: run["digest"] for run in a_runs}
        differing = sorted(
            run["seed"]
            for run in b_runs
            if run["seed"] in a_digests and a_digests[run["seed"]] != run["digest"]
        )
        failing = failing or bool(differing)
        print(
            "  simulated outputs: "
            + (f"DIFFER at seeds {differing}" if differing else "identical at every shared seed")
        )
        rows = layer_diff(a_runs, b_runs)
        if rows:
            root = statistics.median(
                run["layers"]["trace.root_s"] for run in a_runs if run.get("layers")
            )
            print(
                "  per-layer self time, median of traced runs "
                "(A -> B, change as % of A's root span):"
            )
            for name, a_med, b_med in rows:
                if a_med or b_med:
                    print(
                        f"    {name:<40s} {a_med:.6f}s -> {b_med:.6f}s  "
                        f"{100 * (b_med - a_med) / root:+.2f}%"
                    )
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
