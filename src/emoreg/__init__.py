"""Time-continuous multimodal emotion regression.

A numpy/scipy implementation of a multimodal transformer encoder-decoder for
predicting continuous emotion traces (e.g. arousal/valence) from several
feature streams at once, with native handling of missing modalities, a
modality-elimination training scheme that hardens the model against absent
streams, a synthetic benchmark generator, and multi-seed statistical
comparison utilities.
"""

__version__ = "0.1.0"

from .errors import (
    CapacityError,
    ConfigError,
    ContractError,
    DataLoadError,
    EmoregError,
    InsufficientDataError,
    NoModalityError,
    NumericError,
    ShapeError,
)
