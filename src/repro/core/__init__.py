"""Core defense system — the paper's primary contribution.

Contains the training-free thru-barrier attack detector: cross-device
synchronization, offline barrier-effect-sensitive phoneme selection,
BRNN-based phoneme segmentation, vibration-domain feature extraction, and
the 2-D-correlation detector, plus the audio-domain and
vibration-without-selection baselines used in the paper's evaluation.
"""

from repro.core.phoneme_selection import (
    PhonemeSelectionConfig,
    PhonemeSelectionResult,
    PhonemeSelector,
)
from repro.core.features import (
    FeatureConfig,
    VibrationFeatureExtractor,
)
from repro.core.detector import (
    CorrelationDetector,
    DetectorConfig,
)
from repro.core.hardening import HardeningConfig, sample_subset
from repro.core.sync import SyncConfig, synchronize_recordings
from repro.core.segmentation import (
    PhonemeSegmenter,
    SegmenterConfig,
    concatenate_segments,
    mask_to_segments,
)
from repro.core.baselines import (
    AudioDomainBaseline,
    VibrationBaselineNoSelection,
)
from repro.core.pipeline import DefenseConfig, DefensePipeline, DefenseVerdict
from repro.core.stages import (
    DetectStage,
    FeatureStage,
    SegmentStage,
    SenseStage,
    Stage,
    StageContext,
    SyncStage,
    default_stages,
)
from repro.core.calibration import (
    CalibrationReport,
    calibrate_eer,
    calibrate_max_fdr,
    calibrate_min_tdr,
)
from repro.core.system import CommandJudgement, ThruBarrierDefense

__all__ = [
    "PhonemeSelectionConfig",
    "PhonemeSelectionResult",
    "PhonemeSelector",
    "FeatureConfig",
    "VibrationFeatureExtractor",
    "CorrelationDetector",
    "DetectorConfig",
    "HardeningConfig",
    "sample_subset",
    "SyncConfig",
    "synchronize_recordings",
    "PhonemeSegmenter",
    "SegmenterConfig",
    "concatenate_segments",
    "mask_to_segments",
    "AudioDomainBaseline",
    "VibrationBaselineNoSelection",
    "DefenseConfig",
    "DefensePipeline",
    "DefenseVerdict",
    "Stage",
    "StageContext",
    "SyncStage",
    "SegmentStage",
    "SenseStage",
    "FeatureStage",
    "DetectStage",
    "default_stages",
    "CalibrationReport",
    "calibrate_eer",
    "calibrate_max_fdr",
    "calibrate_min_tdr",
    "CommandJudgement",
    "ThruBarrierDefense",
]
