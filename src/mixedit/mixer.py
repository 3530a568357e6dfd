"""SNR-controlled gain assignment and input/target mixture synthesis.

The input mixture is the plain sum of the scaled sources; the target
mixture is the sum of the same sources rescaled by their action factors.
Per-source levels are set against a 0 dB reference (the first speech
source, or the first source if there is no speech): audio sources draw
uniformly from [-3, 3] dB, speech sources from a range selected by their
volume attribute (low [-3, -2], normal [-1, 1], high [2, 3]).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .core import Action, Signature, SpeechSignature, Level
from .dsp import Clip, _Fresh, mean_square
from .errors import MixeditError
from .seeding import derive_seed

SPEECH_SNR_RANGES = {
    Level.LOW: (-3.0, -2.0),
    Level.NORMAL: (-1.0, 1.0),
    Level.HIGH: (2.0, 3.0),
}
AUDIO_SNR_RANGE = (-3.0, 3.0)

PEAK_LIMIT = 1.0
PEAK_TARGET = 0.99


class SilentSource(MixeditError):
    pass


class LengthMismatch(MixeditError):
    pass


@dataclass(frozen=True)
class GainAssignment:
    """Per-source linear gains realizing the drawn SNRs exactly."""

    gains: tuple[float, ...]
    snrs_db: tuple[float, ...]
    reference_index: int


def snr_range_for(sig: Signature) -> tuple[float, float]:
    if isinstance(sig, SpeechSignature):
        return SPEECH_SNR_RANGES[sig.style.volume]
    return AUDIO_SNR_RANGE


def draw_assigned_snrs(signatures, seed: int) -> tuple[tuple[float, ...], int]:
    """Draw the per-source SNR targets without touching any audio.

    Each source gets its own substream keyed by (seed, signature), so the
    draw does not depend on list iteration order. The reference source is
    pinned to 0 dB. Returns (snrs, reference_index).
    """
    signatures = list(signatures)
    ref = next(
        (i for i, s in enumerate(signatures) if isinstance(s, SpeechSignature)),
        0,
    )
    snrs = []
    for i, sig in enumerate(signatures):
        if i == ref:
            snrs.append(0.0)
            continue
        lo, hi = snr_range_for(sig)
        rng = random.Random(derive_seed(seed, sig.canonical()))
        snrs.append(rng.uniform(lo, hi))
    return tuple(snrs), ref


def gain_for(energy: float, ref_energy: float, snr_db: float) -> float:
    """Linear gain giving 10*log10(E(g*s)/E(ref)) == snr_db exactly."""
    return math.sqrt(10.0 ** (snr_db / 10.0) * ref_energy / energy)


def assign_gains(sources, seed: int) -> GainAssignment:
    """Assign linear gains so each source hits its drawn SNR exactly.

    ``sources`` is a sequence of (Clip, Signature) pairs, conditioned to
    equal length. SNR is measured as mean-square energy ratio against the
    reference source over the full clip, padding included.
    """
    sources = list(sources)
    if not sources:
        raise ValueError("need at least one source")
    lengths = {len(c) for c, _ in sources}
    if len(lengths) > 1:
        raise LengthMismatch("sources must be conditioned to equal length")
    energies = [mean_square(c) for c, _ in sources]
    for i, e in enumerate(energies):
        if e == 0.0:
            raise SilentSource(f"source {i} has zero energy")
    snrs, ref = draw_assigned_snrs([s for _, s in sources], seed)
    gains = [
        1.0 if i == ref else gain_for(energies[i], energies[ref], target_db)
        for i, target_db in enumerate(snrs)
    ]
    return GainAssignment(tuple(gains), snrs, ref)


def apply_gains(sources, assignment: GainAssignment) -> list[Clip]:
    return [
        Clip(_Fresh(clip.samples * g), clip.rate)
        for (clip, _), g in zip(sources, assignment.gains)
    ]


def _check_aligned(clips):
    clips = list(clips)
    if not clips:
        raise ValueError("need at least one clip")
    n, rate = len(clips[0]), clips[0].rate
    for c in clips[1:]:
        if len(c) != n or c.rate != rate:
            raise LengthMismatch("clips differ in length or rate")
    return clips


def mix(sources) -> Clip:
    """Sample-wise sum of equally long clips."""
    clips = list(sources)
    return weighted_sum(clips, [1.0] * len(clips))


def weighted_sum(sources, alphas) -> Clip:
    """Sample-wise sum with raw scalar weights."""
    clips = _check_aligned(sources)
    alphas = list(alphas)
    if len(alphas) != len(clips):
        raise LengthMismatch("one weight per source required")
    total = np.zeros(len(clips[0]))
    for a, c in zip(alphas, clips):
        total += a * c.samples
    return Clip(_Fresh(total), clips[0].rate)


def target_mixture(sources, actions) -> Clip:
    """Sum of the sources rescaled by their action factors."""
    actions = list(actions)
    return weighted_sum(sources, [a.alpha for a in actions])


@dataclass(frozen=True)
class MixturePair:
    """An input mixture with its edited target and constituent sources.

    If any sample of the pair exceeds full scale, everything (input,
    target, and the stored sources) is rescaled by one common factor to
    peak 0.99, which preserves all SNR relations.
    """

    input: Clip
    target: Clip
    sources: tuple[Clip, ...]
    actions: tuple[Action, ...]
    scale: float = 1.0

    @classmethod
    def build(cls, scaled_sources, actions) -> "MixturePair":
        sources = tuple(scaled_sources)
        actions = tuple(actions)
        if len(actions) != len(sources):
            raise LengthMismatch("one action per source required")
        x = mix(sources)
        y = target_mixture(sources, actions)
        peak = max(
            float(np.max(np.abs(x.samples), initial=0.0)),
            float(np.max(np.abs(y.samples), initial=0.0)),
            max(float(np.max(np.abs(s.samples), initial=0.0)) for s in sources),
        )
        scale = 1.0
        if peak > PEAK_LIMIT:
            scale = PEAK_TARGET / peak
            x = Clip(_Fresh(x.samples * scale), x.rate)
            y = Clip(_Fresh(y.samples * scale), y.rate)
            sources = tuple(Clip(_Fresh(s.samples * scale), s.rate)
                            for s in sources)
        return cls(x, y, sources, actions, scale)
