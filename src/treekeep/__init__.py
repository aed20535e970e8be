"""treekeep: update decision trees while keeping the audit diff small.

A tree update is scored by misclassifications + alpha * nodes +
beta * changed nodes; the keep-regrow updater chooses per node between
keeping the existing condition and regrowing from the current data,
so reviewers only re-audit what actually changed.
"""

__version__ = "0.1.0"

from .data import (
    BatchPlan,
    Dataset,
    DatasetManifest,
    Rectangle,
    SyntheticSpec,
    builtin_dataset_path,
    dataset_from_manifest,
    load_csv,
    load_manifest,
    make_batch_plan,
    synthetic,
)
from .diff import DiffEntry, DiffReport, diff_table, structural_diff
from .errors import (
    ConfigError,
    DataLoadError,
    InputShapeError,
    TreeFormatError,
    TreekeepError,
)
from .grow import GrowthConfig, SplitCandidate, best_split
from .harness import (
    AlgorithmSpec,
    ExperimentConfig,
    RunRecord,
    SummaryRow,
    accuracy_ci_halfwidth,
    run_eval,
    run_experiment,
    summarize,
    sweep,
)
from .loss import LossBreakdown, LossParams, change_count, loss, misclassification_count
from .tree import (
    Leaf,
    Split,
    Tree,
    depth,
    deserialize,
    load_tree,
    node_at,
    node_count,
    predict,
    save_tree,
    serialize,
    to_dot,
)
from .update import retrain, update
