"""Smoke test of the end-to-end benchmark at ``--smoke`` size.

Checks the benchmark's contract, never its timings: every metric named in
BENCHMARK.json is reported with its unit, output digests repeat, tracing
only observes (same digest, exact self-time accounting, every wrapped
attribute restored), and a run writes nothing outside ``out/``.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import e2e_trace
from e2e_workloads import WORKLOADS

HERE = pathlib.Path(__file__).resolve().parent
REPO = HERE.parent.parent
OUT = HERE / "out"
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())


def _files_outside_out():
    skip = {".git", "__pycache__", ".pytest_cache", ".hypothesis"}
    snapshot = {}
    for root, dirs, files in os.walk(REPO):
        dirs[:] = [
            name
            for name in dirs
            if name not in skip and pathlib.Path(root, name) != OUT
        ]
        for name in files:
            stat = pathlib.Path(root, name).stat()
            snapshot[os.path.join(root, name)] = (stat.st_mtime_ns, stat.st_size)
    return snapshot


def _run(*args):
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "0",
         "--out", str(OUT / "smoke"), *args],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def _record(name):
    return json.loads((OUT / "smoke" / f"{name}.seed0.json").read_text())


@pytest.fixture(scope="module")
def smoke():
    before = _files_outside_out()
    traced = _run("--trace", "1")
    records = {name: _record(name) for name in WORKLOADS}
    untraced = _run("--workload", "imc-zipf-hits", "--trace", "0")
    rerun = _record("imc-zipf-hits")
    return before, _files_outside_out(), traced, untraced, records, rerun


def test_every_metric_is_reported_with_its_unit(smoke):
    _, _, traced, untraced, records, _ = smoke
    assert traced["correct"] and traced["failed"] == 0
    assert untraced["correct"] and untraced["failed"] == 0
    for metric in SPEC["end_to_end"]:
        assert untraced["metrics"][metric["name"]]["unit"] == metric["unit"]
        for record in records.values():
            assert record["metrics"][metric["name"]]["unit"] == metric["unit"]
    for metric in SPEC["per_layer"]:
        for name in WORKLOADS:
            assert traced["metrics"][f"{name}/{metric['name']}"]["unit"] == metric["unit"]


def test_digests_repeat_and_tracing_only_observes(smoke):
    _, _, _, _, records, rerun = smoke
    for record in records.values():
        assert record["traced_digest_ok"]
        assert record["layers"]["trace.self_sum_error"] <= 1e-6
    # A second invocation rebuilt everything from the same seed.
    assert rerun["digest"] == records["imc-zipf-hits"]["digest"]


def test_nothing_written_outside_out(smoke):
    before, after, *_ = smoke
    assert before == after


def test_tracing_restores_every_wrapped_attribute():
    targets = [(owner, attribute) for owner, attribute, _ in e2e_trace.HostTrace().wrappers()]

    def current():
        return [vars(owner)[attribute] for owner, attribute in targets]

    originals = current()
    _, _, _, trace = e2e_trace.traced_rep(WORKLOADS["imc-zipf-hits"], 0, True)
    assert current() == originals
    assert trace.batches > 0
    assert sum(trace.self_times_ns().values()) == trace.root_ns()
    with pytest.raises(RuntimeError):
        with e2e_trace.tracing(e2e_trace.HostTrace()):
            assert all(now is not then for now, then in zip(current(), originals))
            raise RuntimeError("leave the context by an exception")
    assert current() == originals
