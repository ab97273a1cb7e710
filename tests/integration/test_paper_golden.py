"""Golden digests of the paper's own experiments.

Every CLI experiment outside ``cli.SERVING_EXPERIMENTS`` -- the figures,
tables and comparisons E1-E8 and the ablations and extensions A1-A9 --
runs with its default arguments, and the sha256 of its
``report.format()`` text must equal ``tests/golden/paper_experiments.json``.
The serving studies have their own digests in
``tests/serving/test_serving_golden.py``.

A change that is meant to alter a report updates the JSON (the failure
message prints the recomputed digest) and says why.  If a numpy release
shifts the digests, pin them to the CI numpy and say so in
docs/determinism.md; do not loosen them to tolerances.
"""

import hashlib
import json
import pathlib

import pytest

from repro.cli import EXPERIMENTS, SERVING_EXPERIMENTS

GOLDEN = pathlib.Path(__file__).resolve().parents[1] / "golden" / "paper_experiments.json"
PAPER_EXPERIMENTS = sorted(set(EXPERIMENTS) - SERVING_EXPERIMENTS)


@pytest.mark.parametrize("experiment_id", PAPER_EXPERIMENTS)
def test_report_matches_golden(experiment_id):
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == PAPER_EXPERIMENTS, (
        f"{GOLDEN.name} must pin exactly the paper experiments {PAPER_EXPERIMENTS}"
    )
    _, runner = EXPERIMENTS[experiment_id]
    digest = hashlib.sha256(runner().format().encode()).hexdigest()
    assert digest == golden[experiment_id], (
        f"{experiment_id}: report text changed; if intended, put this digest "
        f"in {GOLDEN.name} and say why:\n"
        + json.dumps({experiment_id: digest}, indent=2)
    )
