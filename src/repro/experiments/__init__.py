"""Experiment drivers: one module per paper table/figure plus ablations.

============  =======================================================
Experiment    Paper artefact
============  =======================================================
E1            Fig. 2 -- GPU operation breakdown
E2            Table I -- memory mapping
E3            Table II -- array-level FoMs
E4            Sec. IV-B -- accuracy study
E5            Table III -- ET operation comparison
E6            Sec. IV-C2 -- NNS comparison
E7            Sec. IV-C3 -- end-to-end comparison
E8            Fig. 3 -- computation-flow trace (structural)
A1            Design-space ablations (fan-ins, bus width)
A2            LSH signature-length ablation
A3            Process-variation robustness (dummy-cell reference)
A4            Batching throughput extension
A5            Area accounting
A6            Crossbar non-ideality ablation (analog CTR accuracy)
A7            Standby power (FeFET non-volatility benefit)
A8            Trace-driven ET access locality
A9            ET-operation scaling study
E-SERVE       Online serving study (traffic, sharding, caching)
E-AUTOSCALE   Closed-loop autoscaler (shards x replicas vs p95 SLO)
E-HETERO      Heterogeneous fleet (IMC+GPU spillover, live scaling,
              admission control)
E-CHAOS       Fault injection: self-healing fleet vs resilience-off
E-COST        Dollar-cost execution models (eager/lazy/hybrid) +
              workload analyzer
E-FORECAST    Forecast-driven predictive autoscaling (reactive vs
              predictive vs oracle) + heterogeneous deployment search
============  =======================================================
"""

from repro.experiments.common import ExperimentReport, PaperComparison, relative_error
from repro.experiments.fig2_breakdown import run_fig2, PAPER_FIG2
from repro.experiments.table1_mapping import run_table1, PAPER_TABLE1
from repro.experiments.table2_array_fom import run_table2, PAPER_TABLE2
from repro.experiments.accuracy_study import run_accuracy_study, PAPER_ACCURACY
from repro.experiments.table3_et_ops import run_table3, PAPER_TABLE3
from repro.experiments.nns_comparison import run_nns_comparison, PAPER_NNS
from repro.experiments.end_to_end import (
    run_end_to_end,
    movielens_end_to_end,
    criteo_end_to_end,
    PAPER_END_TO_END,
    NUM_CANDIDATES,
)
from repro.experiments.flow_trace import run_flow_trace, build_toy_fabric
from repro.experiments.design_space import (
    run_design_space,
    sweep_intra_bank_fan_in,
    sweep_intra_mat_fan_in,
    sweep_rsc_width,
)
from repro.experiments.lsh_sweep import run_lsh_sweep
from repro.experiments.variation_study import run_variation_study
from repro.experiments.batch_throughput import run_batch_throughput
from repro.experiments.area_study import run_area_study
from repro.experiments.analog_accuracy import run_analog_accuracy
from repro.experiments.standby_power import run_standby_power
from repro.experiments.trace_locality import run_trace_locality
from repro.experiments.scaling_study import run_scaling_study
from repro.experiments.serving_study import run_serving_study
from repro.experiments.autoscale_study import run_autoscale_study
from repro.experiments.hetero_study import run_hetero_study
from repro.experiments.chaos_study import run_chaos_study
from repro.experiments.cost_study import run_cost_study
from repro.experiments.forecast_study import run_forecast_study

__all__ = [
    "run_autoscale_study",
    "run_chaos_study",
    "run_cost_study",
    "run_forecast_study",
    "run_hetero_study",
    "run_serving_study",
    "run_scaling_study",
    "run_variation_study",
    "run_batch_throughput",
    "run_area_study",
    "run_analog_accuracy",
    "run_standby_power",
    "run_trace_locality",
    "ExperimentReport",
    "PaperComparison",
    "relative_error",
    "run_fig2",
    "PAPER_FIG2",
    "run_table1",
    "PAPER_TABLE1",
    "run_table2",
    "PAPER_TABLE2",
    "run_accuracy_study",
    "PAPER_ACCURACY",
    "run_table3",
    "PAPER_TABLE3",
    "run_nns_comparison",
    "PAPER_NNS",
    "run_end_to_end",
    "movielens_end_to_end",
    "criteo_end_to_end",
    "PAPER_END_TO_END",
    "NUM_CANDIDATES",
    "run_flow_trace",
    "build_toy_fabric",
    "run_design_space",
    "sweep_intra_bank_fan_in",
    "sweep_intra_mat_fan_in",
    "sweep_rsc_width",
    "run_lsh_sweep",
]
