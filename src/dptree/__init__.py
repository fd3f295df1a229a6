"""Differentially private top-down decision tree learning, single-machine and
distributed over simulated data holders."""

from .dp_core import (
    BudgetExceededError,
    DegenerateLeafError,
    InvalidParameterError,
    PrivacyLedger,
    ProtocolError,
    RandomSource,
    Scope,
    laplace_mechanism,
    laplace_tail_threshold,
    report_noisy_max,
    sample_laplace,
    set_zero_noise,
    zero_noise,
)
from .tree_learning import (
    Criterion,
    DecisionTree,
    LabeledDataset,
    LeafCounts,
    SplitFunction,
    criterion_value,
    potential,
    split_gain,
    topdown_nonprivate,
    tree_error,
)
from .dp_topdown import (
    DPTopDownConfig,
    DecaySchedule,
    RunStats,
    UniformSchedule,
    budget_at_depth,
    dp_topdown,
    estimate_weight,
    label_leaves,
    schedule_from_name,
)
from .split_strategies import (
    Entity,
    EntityPool,
    LeafRef,
    LocalRNMSplitter,
    NoisyCountsSplitter,
    SingleMachineRNMSplitter,
    distributed_label_counts,
    distributed_weight_estimate,
    local_rnm_split,
    noisy_counts_split,
)

__version__ = "0.1.0"
