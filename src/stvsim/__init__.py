"""stvsim: STV counting plus Monte Carlo digitisation-error simulation.

The package models Australian-Senate-style elections (above/below the line
voting, formality rules, inclusive Gregory surplus transfers) and measures
how random digit errors bias outcomes by invalidating or truncating
ballots.
"""

__version__ = "0.1.0"

from .ballots import (
    UNGROUPED,
    BallotError,
    Candidate,
    CandidateRanking,
    ElectionMeta,
    FormalityRules,
    Group,
    MarkSheet,
    Preferences,
    VoteStyle,
    classify_formality,
    expand_to_candidates,
    interpret_marks,
    marks_from_preferences,
)
from .count import (
    CountError,
    CountInvariantError,
    CountRules,
    CountTranscript,
    SurplusMethod,
    TallyRounding,
    count_stv,
    droop_quota,
)
from .error_models import (
    BUNDLED_CONFUSION_TABLE,
    ConfusionModel,
    ErrorModelError,
    TruncationModel,
    UniformDigitModel,
    apply_confusion_model,
    apply_digit_model,
    apply_truncation_model,
    load_confusion_table,
    perturb_ballot,
)
from .ingest import (
    ColumnMap,
    ElectionFile,
    IngestError,
    IngestResult,
    SchemaError,
    parse_preference_csv,
    read_election_file,
    write_election_file,
)
from .rng import RandomStream, derive_seed
from .sim import (
    PartitionTable,
    PointResult,
    SimConfig,
    SimError,
    SimReport,
    formal_ballots,
    formality_rate_report,
    partition_by_preference,
    preference_position_histogram,
    run_sweep,
    write_report,
)
from .stats import (
    RateEstimate,
    StatsError,
    binomial_estimate,
    digit_budget,
    repeated_and_skipped_table,
)
