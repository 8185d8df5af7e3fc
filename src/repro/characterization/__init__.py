"""Device characterization: randomized benchmarking, simultaneous RB
crosstalk discovery, SRB overhead accounting (paper Table I / Fig. 2),
and state tomography.
"""

from .rb import (
    DEFAULT_RB_LENGTHS,
    RBResult,
    fit_rb_decay,
    rb_sequence,
    rb_survival,
    run_rb,
)
from .scheduling import (
    SRBExperiment,
    SRBOverheadReport,
    group_experiments,
    srb_experiments,
    srb_job_count,
    srb_overhead_report,
)
from .tomography import (
    TomographyResult,
    project_to_physical,
    state_tomography,
    tomography_circuits,
)
from .srb import (
    CrosstalkCharacterization,
    SRBPairResult,
    characterize_crosstalk,
    run_srb_experiment,
)

__all__ = [
    "DEFAULT_RB_LENGTHS",
    "CrosstalkCharacterization",
    "RBResult",
    "SRBExperiment",
    "SRBOverheadReport",
    "SRBPairResult",
    "TomographyResult",
    "characterize_crosstalk",
    "fit_rb_decay",
    "group_experiments",
    "rb_sequence",
    "rb_survival",
    "run_rb",
    "run_srb_experiment",
    "srb_experiments",
    "srb_job_count",
    "project_to_physical",
    "srb_overhead_report",
    "state_tomography",
    "tomography_circuits",
]
