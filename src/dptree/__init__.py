"""Differentially private top-down decision tree learning, single-machine and
distributed over simulated data holders."""

from .dp_core import (
    BudgetExceededError,
    DegenerateLeafError,
    InvalidParameterError,
    PrivacyLedger,
    RandomSource,
    Scope,
    report_noisy_max,
    sample_laplace,
    zero_noise,
)
from .tree_learning import (
    BinnedFeatures,
    Criterion,
    DecisionTree,
    LabeledDataset,
    SplitFunction,
    SplitPlan,
    tree_error,
)
from .dp_topdown import (
    DPTopDownConfig,
    RunStats,
    budget_share,
    dp_topdown,
    estimate_weight,
    label_leaves,
)
from .split_strategies import (
    Entity,
    EntityPool,
    ExactStrategy,
    LocalRNMSplitter,
    NoisyCountsSplitter,
    SingleMachineRNMSplitter,
    local_rnm_split,
    noisy_counts_split,
)

__version__ = "0.1.0"
