"""Adversarial online learning with expert advice over uncertain feedback
graphs: learners, stochastic-feedback simulator, and experiment harness."""

from .environment import (
    FeedbackEvent,
    FixedTableAdversary,
    RunTrace,
    StochasticGapAdversary,
    SwitchingAdversary,
    empirical_regret,
    realize_feedback,
    run_episode,
)
from .errors import (
    ConfigError,
    ContractError,
    IngestError,
    InvariantError,
    PhaseOrderError,
    ProtocolError,
)
from .estimator import Pmf, WeightVector, exp_weight_update, importance_loss_estimate, sample_index
from .experts import Dataset, build_dataset_bundle, load_csv, train_expert_pool
from .graph import (
    EdgeProbabilityTable,
    NominalGraph,
    VertexSet,
    greedy_dominating_set,
    independence_number,
    load_graph_file,
)
from .harness import AggregateResult, ExperimentConfig, emit_results, run_experiment
from .policies import (
    ALGORITHMS,
    Exp3GR,
    Exp3IP,
    Exp3UP,
    LearnerConfig,
    ProbabilityEstimatorState,
    ResampleBuffer,
    estimated_observation_prob,
    exp3ip_pmf,
    geometric_resample,
    load_snapshot,
    make_learner,
    observation_probs,
)
from .schedulers import (
    DoublingSchedule,
    DoublingState,
    FixedEta,
    InverseSqrtEta,
    gr_doubling_params,
    ip_doubling_step,
    parse_schedule,
    up_doubling_params,
)

__version__ = "0.1.0"
