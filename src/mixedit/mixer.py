"""SNR-controlled gain assignment and input/target mixture synthesis.

The input mixture is the plain sum of the scaled sources; the target
mixture is the sum of the same sources rescaled by their action factors.
Planning draws each source's level against a 0 dB reference (the first
speech source, or the first source if there is no speech): audio sources
draw uniformly from [-3, 3] dB, speech sources from a range selected by
their volume attribute (low [-3, -2], normal [-1, 1], high [2, 3]).
Synthesis plays each planned level as given: a source's gain puts its
conditioned energy at its SNR relative to the reference source's
conditioned energy.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .core import Signature, SpeechSignature, Level
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


class BadLevel(MixeditError):
    """A planned SNR whose gain is not a finite positive number."""


def snr_range_for(sig: Signature) -> tuple[float, float]:
    if isinstance(sig, SpeechSignature):
        return SPEECH_SNR_RANGES[sig.style.volume]
    return AUDIO_SNR_RANGE


def reference_index(signatures) -> int:
    """The source every level is set against: the first speech source,
    or source 0 if there is no speech."""
    return next(
        (i for i, s in enumerate(signatures) if isinstance(s, SpeechSignature)),
        0,
    )


def draw_assigned_snrs(signatures, seed: int) -> tuple[float, ...]:
    """Draw the per-source SNR targets without touching any audio.

    Each source gets its own substream keyed by (seed, signature), so the
    draw does not depend on list iteration order. The reference source is
    pinned to 0 dB.
    """
    signatures = list(signatures)
    ref = reference_index(signatures)
    snrs = []
    for i, sig in enumerate(signatures):
        if i == ref:
            snrs.append(0.0)
            continue
        lo, hi = snr_range_for(sig)
        rng = random.Random(derive_seed(seed, sig.canonical()))
        snrs.append(rng.uniform(lo, hi))
    return tuple(snrs)


def gain_for(energy: float, ref_energy: float, snr_db: float) -> float:
    """Linear gain giving 10*log10(E(g*s)/E(ref)) == snr_db exactly."""
    return math.sqrt(10.0 ** (snr_db / 10.0) * ref_energy / energy)


def assign_gains(clips, signatures, snrs_db) -> tuple[float, ...]:
    """Linear gains that play each source at its planned SNR exactly.

    ``clips`` are the conditioned sources, of equal length, with their
    ``signatures`` and planned ``snrs_db``. Source i's gain puts its
    mean-square energy over the full clip, padding included, at
    ``snrs_db[i]`` relative to the reference source's conditioned energy,
    so a reference planned at 0 dB keeps unit gain. Raises BadLevel for a
    level whose gain is not finite and positive.
    """
    clips = list(clips)
    if not clips:
        raise ValueError("need at least one source")
    if len({len(c) for c in clips}) > 1:
        raise LengthMismatch("sources must be conditioned to equal length")
    energies = [mean_square(c) for c in clips]
    for i, e in enumerate(energies):
        if e == 0.0:
            raise SilentSource(f"source {i} has zero energy")
    ref_energy = energies[reference_index(signatures)]
    gains = []
    for i, (energy, snr_db) in enumerate(zip(energies, snrs_db, strict=True)):
        try:
            gain = gain_for(energy, ref_energy, snr_db)
        except OverflowError:
            gain = math.inf
        if not 0.0 < gain < math.inf:
            raise BadLevel(f"source {i} at {snr_db!r} dB needs gain {gain!r}")
        gains.append(gain)
    return tuple(gains)


def apply_gains(clips, gains) -> list[Clip]:
    return [Clip(_Fresh(clip.samples * g), clip.rate)
            for clip, g in zip(clips, gains, strict=True)]


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
    """An input mixture with its edited target.

    If any sample of the pair or of a source exceeds full scale, input
    and target are rescaled by one common factor to peak 0.99, which
    preserves all SNR relations.
    """

    input: Clip
    target: Clip
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
        return cls(x, y, scale)
