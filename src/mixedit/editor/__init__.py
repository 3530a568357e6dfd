"""Reference editors: the exact waveform oracle, ideal time-frequency
editing masks, and a small FiLM-conditioned mask network with analytic
gradients."""

from .masking import (
    DimMismatch,
    EditingMask,
    MaskKind,
    embed_instruction,
    export_mask,
    ideal_mask,
    mask_edit,
    oracle_edit,
)
from .film import (
    BadNetConfig,
    Diverged,
    FilmMaskNet,
    MaskNetConfig,
    ShapeMismatch,
    TrainExample,
    TrainResult,
    train_toy,
)
from .serialize import load_net, save_net

__all__ = [
    "DimMismatch", "EditingMask", "MaskKind", "embed_instruction",
    "export_mask", "ideal_mask", "mask_edit", "oracle_edit",
    "BadNetConfig", "Diverged", "FilmMaskNet", "MaskNetConfig",
    "ShapeMismatch", "TrainExample", "TrainResult", "train_toy",
    "load_net", "save_net",
]
