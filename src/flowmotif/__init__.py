"""Flow-motif analysis of soccer pass networks.

Pipeline: parse pass events, segment possessions, canonicalize and count
k-pass motifs, score them against randomized null models, and cluster
teams by their motif z-score fingerprints.
"""

from .analytics import (
    ClusterAssignment,
    Dendrogram,
    DendrogramNode,
    PcaProjection,
    TeamFingerprint,
    kmeans,
    pca_project,
    team_fingerprint,
    ward_cluster,
)
from .events import (
    FormatError,
    MatchEventLog,
    ParseDiagnostic,
    ParseResult,
    PassEvent,
    group_by_match,
    parse_pass_events,
    serialize_pass_events,
)
from .motifs import (
    MotifCountVector,
    MotifPattern,
    canonicalize,
    count_motifs,
    enumerate_patterns,
    extract_motifs,
)
from .nullmodel import (
    DegenerateInputError,
    NullDistribution,
    NullModelConfig,
    ZScoreProfile,
    null_distribution,
    randomize_possessions,
    z_scores,
)
from .possessions import (
    Possession,
    SegmentationConfig,
    segment_possessions,
    touch_sequence,
)
from .seeding import derive_seed
from .synth import TeamStyleParams, generate_league, generate_match

__version__ = "0.2.0"

__all__ = [
    "ClusterAssignment",
    "Dendrogram",
    "DendrogramNode",
    "DegenerateInputError",
    "FormatError",
    "MatchEventLog",
    "MotifCountVector",
    "MotifPattern",
    "NullDistribution",
    "NullModelConfig",
    "ParseDiagnostic",
    "ParseResult",
    "PassEvent",
    "PcaProjection",
    "Possession",
    "SegmentationConfig",
    "TeamFingerprint",
    "TeamStyleParams",
    "ZScoreProfile",
    "canonicalize",
    "count_motifs",
    "derive_seed",
    "enumerate_patterns",
    "extract_motifs",
    "generate_league",
    "generate_match",
    "group_by_match",
    "kmeans",
    "null_distribution",
    "parse_pass_events",
    "pca_project",
    "randomize_possessions",
    "segment_possessions",
    "serialize_pass_events",
    "team_fingerprint",
    "touch_sequence",
    "ward_cluster",
    "z_scores",
]
