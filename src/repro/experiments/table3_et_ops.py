"""E5 -- Table III: ET operation comparison between the GPU and iMARS.

For each of the three workload/stage rows the experiment prices the full
embedding-table operation (lookups + pooling + adder trees + communication)
on both platforms and reports latency, energy, speedup and energy
reduction against the published values:

=================  ========  =========  ========  ========  =========  ========
Row                GPU lat   iMARS lat  Speedup   GPU E     iMARS E    E-reduc
=================  ========  =========  ========  ========  =========  ========
MovieLens filter   9.27 us   0.21 us    43.61x    203.97uJ  0.40 uJ    516.05x
MovieLens rank     9.60 us   0.21 us    45.17x    211.26uJ  0.46 uJ    458.12x
Criteo rank        14.97 us  0.24 us    61.83x    329.34uJ  6.88 uJ    47.90x
=================  ========  =========  ========  ========  =========  ========

Calibration split (see DESIGN.md Sec. 5 and core/calibration.py): GPU
latencies are fitted on rows 1 and 3 (row 2 is a held-out validation);
iMARS latencies are *predictive* (composed from Table II); iMARS energies
anchor the two-parameter peripheral model on rows 1 and 3, with row 2 held
out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core.accelerator import IMARSCostModel
from repro.core.mapping import FILTERING, RANKING, WorkloadMapping
from repro.data.criteo import criteo_table_specs
from repro.data.movielens import movielens_table_specs
from repro.energy.accounting import Cost
from repro.experiments.common import ExperimentReport
from repro.gpu.kernels import gpu_et_operation

__all__ = ["run_table3", "PAPER_TABLE3", "Table3Row"]

#: Published Table III: (gpu_lat_us, imars_lat_us, gpu_uj, imars_uj).
PAPER_TABLE3 = {
    "movielens_filtering": (9.27, 0.21, 203.97, 0.40),
    "movielens_ranking": (9.60, 0.21, 211.26, 0.46),
    "criteo_ranking": (14.97, 0.24, 329.34, 6.88),
}


@dataclass
class Table3Row:
    """One reproduced row of Table III."""

    label: str
    gpu: Cost
    imars: Cost

    @property
    def speedup(self) -> float:
        return self.imars.speedup_over(self.gpu)

    @property
    def energy_reduction(self) -> float:
        return self.imars.energy_reduction_over(self.gpu)


def _rows() -> List[Table3Row]:
    movielens = WorkloadMapping(movielens_table_specs())
    criteo = WorkloadMapping(criteo_table_specs())
    ml_model = IMARSCostModel(movielens)
    ck_model = IMARSCostModel(criteo)

    ml_filter_tables = len(movielens.tables_for_stage(FILTERING))
    ml_rank_tables = len(movielens.tables_for_stage(RANKING))
    ck_rank_tables = len(criteo.tables_for_stage(RANKING))

    return [
        Table3Row(
            "movielens_filtering",
            gpu=gpu_et_operation(ml_filter_tables),
            imars=ml_model.et_operation(FILTERING),
        ),
        Table3Row(
            "movielens_ranking",
            gpu=gpu_et_operation(ml_rank_tables),
            imars=ml_model.et_operation(RANKING),
        ),
        Table3Row(
            "criteo_ranking",
            gpu=gpu_et_operation(ck_rank_tables),
            imars=ck_model.et_operation(RANKING),
        ),
    ]


def run_table3() -> ExperimentReport:
    """Reproduce every cell of Table III."""
    report = ExperimentReport("E5", "Table III: ET operation, GPU vs iMARS")
    rows = _rows()
    for row in rows:
        gpu_lat, imars_lat, gpu_uj, imars_uj = PAPER_TABLE3[row.label]
        report.add(f"{row.label} GPU latency", gpu_lat, row.gpu.latency_us, "us")
        report.add(f"{row.label} iMARS latency", imars_lat, row.imars.latency_us, "us")
        report.add(f"{row.label} GPU energy", gpu_uj, row.gpu.energy_uj, "uJ")
        report.add(f"{row.label} iMARS energy", imars_uj, row.imars.energy_uj, "uJ")
        report.add(
            f"{row.label} speedup", gpu_lat / imars_lat, row.speedup, "x"
        )
        report.add(
            f"{row.label} energy reduction", gpu_uj / imars_uj, row.energy_reduction, "x"
        )
    report.note(
        "movielens_ranking is the held-out validation row for both the GPU "
        "latency fit and the iMARS peripheral-energy fit."
    )
    report.extras["rows"] = rows
    return report
