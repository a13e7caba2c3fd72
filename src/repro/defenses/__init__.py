"""Server-side robust aggregation rules (defenses)."""

from .adaptive_refd import AdaptiveRefd
from .base import Defense, NoDefense
from .bulyan import Bulyan
from .distances import pairwise_cosine_similarities, pairwise_sq_distances
from .foolsgold import FoolsGold, pardoned_similarities
from .krum import (
    Krum,
    MultiKrum,
    iterative_krum_selection,
    krum_neighbourhood_size,
    krum_scores,
    krum_scores_from_distances,
)
from .norm_clipping import NormClipping
from .refd import DScoreReport, Refd, balance_value, confidence_value, d_score
from .registry import DEFENSE_REGISTRY, available_defenses, build_defense
from .statistics import Median, TrimmedMean

__all__ = [
    "Defense",
    "NoDefense",
    "Krum",
    "MultiKrum",
    "krum_scores",
    "krum_scores_from_distances",
    "krum_neighbourhood_size",
    "iterative_krum_selection",
    "pairwise_sq_distances",
    "pairwise_cosine_similarities",
    "pardoned_similarities",
    "Bulyan",
    "Median",
    "TrimmedMean",
    "FoolsGold",
    "NormClipping",
    "Refd",
    "AdaptiveRefd",
    "DScoreReport",
    "balance_value",
    "confidence_value",
    "d_score",
    "DEFENSE_REGISTRY",
    "build_defense",
    "available_defenses",
]
