"""Sound mixture-to-mixture editing toolkit.

Symbolic edit instructions over speech/audio sources, SNR-controlled
mixture synthesis, prompt templating and parsing, reference editors,
and the evaluation metric suite.
"""

from .core import (
    Action,
    AudioSignature,
    Instruction,
    SimplifiedInstruction,
    SpeechSignature,
    StyleVector,
    validate_instruction,
)
from .dsp import Clip, condition, resample
from .errors import MixeditError
from .metrics import pit_snr, si_sdr, snr, snri
from .mixer import MixturePair, assign_gains, mix, target_mixture
from .prompt import TemplateId, parse, render, simplify, special_generic
from .taskspace import Composition, Task, classify, count_table, sample_edit

__version__ = "0.1.0"

__all__ = [
    "Action", "AudioSignature", "Instruction", "SimplifiedInstruction",
    "SpeechSignature", "StyleVector", "validate_instruction",
    "Clip", "condition", "resample",
    "MixeditError",
    "pit_snr", "si_sdr", "snr", "snri",
    "MixturePair", "assign_gains", "mix", "target_mixture",
    "TemplateId", "parse", "render", "simplify", "special_generic",
    "Composition", "Task", "classify", "count_table", "sample_edit",
    "__version__",
]
