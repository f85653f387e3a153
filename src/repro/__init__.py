"""repro — reproduction of the ICDCS 2022 thru-barrier voice-attack defense.

Top-level package re-exporting the public API.  See DESIGN.md for the
system inventory and EXPERIMENTS.md for the paper-vs-measured record.
"""

__version__ = "1.0.0"

from repro.errors import (
    CalibrationError,
    ConfigurationError,
    ModelError,
    ProtocolError,
    ReproError,
    ServiceOverloadError,
    SignalError,
    StoreError,
    SynthesisError,
    WorkerError,
)
from repro.core.pipeline import (
    DefenseConfig,
    DefensePipeline,
    DefenseVerdict,
)
from repro.core.phoneme_selection import (
    PhonemeSelectionConfig,
    PhonemeSelector,
)
from repro.core.segmentation import PhonemeSegmenter, SegmenterConfig
from repro.phonemes.corpus import SyntheticCorpus
from repro.phonemes.speaker import generate_speakers
from repro.sensing.cross_domain import CrossDomainSensor

__all__ = [
    "__version__",
    "ReproError",
    "ConfigurationError",
    "SignalError",
    "SynthesisError",
    "ModelError",
    "ProtocolError",
    "CalibrationError",
    "ServiceOverloadError",
    "StoreError",
    "WorkerError",
    "DefenseConfig",
    "DefensePipeline",
    "DefenseVerdict",
    "PhonemeSelectionConfig",
    "PhonemeSelector",
    "PhonemeSegmenter",
    "SegmenterConfig",
    "SyntheticCorpus",
    "generate_speakers",
    "CrossDomainSensor",
]
