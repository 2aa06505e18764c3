"""Multi-annotator discourse segmentation analytics.

Transcripts are sequences of prosodic phrases; the n-1 gaps between n
phrases are boundary sites. The package measures how annotators agree on
those sites, tests the agreement against a chance model, proposes
boundaries from referential noun phrases, cue words, or pauses, and scores
any boundary set against the pooled human opinion.
"""

from .agreement import (
    AgreementReport,
    BoundaryStrengths,
    boundary_strengths,
    majority_threshold,
    percent_agreement,
)
from .corpus import (
    AnnotationMatrix,
    BoundarySet,
    FicCoding,
    Narrative,
    load_annotations,
    load_fic_coding,
    load_narrative,
    serialize_annotations,
    serialize_fic_coding,
    serialize_narrative,
)
from .errors import DegenerateDataError, SchemaError, SegtoolError, ValidationError
from .evaluation import (
    ConfusionCounts,
    EvalMetrics,
    HumanEvaluation,
    MetricAggregate,
    SubjectScore,
    confusion,
    evaluate_humans,
    metrics,
)
from .fixture_data import FIXTURE_NAMES, fixture_path
from .report import BatchItem, Report, build_report
from .segmenters import (
    CueLexicon,
    NpSegmentation,
    TraceStep,
    cue_segment,
    default_cue_lexicon,
    normalize_to_sites,
    np_segment,
    pause_segment,
)
from .significance import (
    CalibrationResult,
    CochranResult,
    QComponent,
    chi_square_cdf,
    chi_square_critical,
    chi_square_sf,
    cochran_q,
    null_calibration,
    partition_q,
)

__version__ = "0.1.0"
