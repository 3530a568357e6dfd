"""Oracle editing and ideal time-frequency editing masks.

The waveform oracle realizes an edit exactly from the true sources. The
ideal masks are its single-gain-field analogue: one non-negative mask
multiplied onto the mixture spectrogram extracts, removes, amplifies,
and reduces every source at once, as far as their supports allow.
"""

from __future__ import annotations

import hashlib
import weakref
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ..core import (
    AudioDescriptor,
    GroupDescriptor,
    SimplifiedInstruction,
    SpeechDescriptor,
)
from ..dsp import (Clip, _each, _Fresh, _parts, _STFT_PARTS, _take, istft,
                   mel_project, stft)
from ..errors import MixeditError
from ..mixer import target_mixture

MASK_EPS = 1e-8
DEFAULT_MASK_MAX = 4.0
DEFAULT_EMBED_DIM = 32


class DimMismatch(MixeditError):
    pass


class MaskKind(Enum):
    IRM = "irm"  # magnitude ratio
    PSM = "psm"  # phase-sensitive projection


@dataclass(frozen=True, eq=False)
class EditingMask:
    """Non-negative gain field: (bins, frames) in the STFT domain or
    (channels, latent frames) for the mask network. The mask keeps a
    read-only copy of the values it is given."""

    values: np.ndarray
    m_max: float = DEFAULT_MASK_MAX

    def __post_init__(self):
        vals = _take(self.values)
        if vals.size:
            # A NaN makes both extremes NaN, an infinity one of them.
            lo, hi = vals.min(), vals.max()
            if not (np.isfinite(lo) and np.isfinite(hi)):
                raise ValueError("mask contains non-finite entries")
            if lo < 0.0 or hi > self.m_max:
                raise ValueError(f"mask entries must lie in [0, {self.m_max}]")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def shape(self):
        return self.values.shape


# STFT frames of each live clip; an entry goes when its clip is collected.
_SPECTRA: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _spectrum(clip: Clip) -> np.ndarray:
    """``stft(clip)``, computed once per clip: ``ideal_mask`` and
    ``mask_edit`` analyse the same mixture. Clips are immutable and hash
    by identity, so a cached entry stays valid; its frames are read-only
    because every caller shares them."""
    frames = _SPECTRA.get(clip)
    if frames is None:
        frames = stft(clip)
        frames.setflags(write=False)
        _SPECTRA[clip] = frames
    return frames


def oracle_edit(scaled_sources, actions) -> Clip:
    """Ground-truth editor: the action-weighted sum of the true sources.

    Identical to the target-mixture synthesis; it exists as the editor
    interface implementation that calibrates masks and metrics.
    """
    return target_mixture(scaled_sources, actions)


def ideal_mask(mixture: Clip, target: Clip,
               kind: MaskKind = MaskKind.PSM) -> EditingMask:
    """Oracle editing mask computed from the mixture and its target.

    IRM: |Y| / max(|X|, eps). PSM: Re(Y * conj(X)) / max(|X|^2, eps),
    which accounts for phase. Both are clamped to [0, DEFAULT_MASK_MAX].
    The mask is frame-major like the spectra, and its element-wise steps
    run on the STFT path's parts of the frames (``dsp._STFT_PARTS``), each
    a contiguous run of memory.
    """
    if len(mixture) != len(target) or mixture.rate != target.rate:
        raise DimMismatch("mixture and target must be aligned")
    x = _spectrum(mixture)
    y = _spectrum(target)
    values = np.empty(x.shape, order="F")

    def build(first, end):
        xs, ys, raw = x[:, first:end], y[:, first:end], values[:, first:end]
        np.abs(xs, out=raw)
        if kind is MaskKind.IRM:
            np.maximum(raw, MASK_EPS, out=raw)
            np.divide(np.abs(ys), raw, out=raw)
        else:
            np.square(raw, out=raw)
            np.maximum(raw, MASK_EPS, out=raw)
            cross = np.conj(xs)
            np.multiply(ys, cross, out=cross)
            np.divide(cross.real, raw, out=raw)
        np.clip(raw, 0.0, DEFAULT_MASK_MAX, out=raw)

    _each(_parts(x.shape[1], *_STFT_PARTS), build)
    return EditingMask(_Fresh(values))


def mask_edit(mixture: Clip, mask: EditingMask) -> Clip:
    """Apply an editing mask to the mixture spectrogram and resynthesize.
    The masked product runs on the STFT path's parts of the frames
    (``dsp._STFT_PARTS``) into one frame-major array, which ``istft``
    reads."""
    frames = _spectrum(mixture)
    if mask.values.shape != frames.shape:
        raise DimMismatch(
            f"mask shape {mask.values.shape} does not match "
            f"spectrogram {frames.shape}"
        )
    masked = np.empty(frames.shape, dtype=np.complex128, order="F")

    def apply(first, end):
        np.multiply(mask.values[:, first:end], frames[:, first:end],
                    out=masked[:, first:end])

    _each(_parts(frames.shape[1], *_STFT_PARTS), apply)
    return Clip(_Fresh(istft(masked, len(mixture))), mixture.rate)


def _edit_tokens(action, desc):
    if isinstance(desc, SpeechDescriptor):
        parts = [f"{field}={value}" for field, value in desc.attrs]
    elif isinstance(desc, AudioDescriptor):
        parts = [f"label={desc.label}"]
    elif isinstance(desc, GroupDescriptor):
        parts = [f"scope={desc.scope.value}"]
    else:
        raise TypeError(f"unknown descriptor {desc!r}")
    if len(parts) > 1:  # whole-edit token ties the attributes together
        parts = parts + ["+".join(parts)]
    return parts


_HASH_SPREAD = 4  # buckets per token; tokens collide only if all four agree


def embed_instruction(simplified: SimplifiedInstruction,
                      dim: int = DEFAULT_EMBED_DIM) -> np.ndarray:
    """Deterministic semantic-filter vector for a simplified instruction.

    Signed sparse feature hashing: every (action, attribute) token lights
    up four signed buckets of R^dim, and the sum is unit-normalized.
    Identical instructions map to identical vectors regardless of edit
    order.
    """
    if dim < 1:
        raise ValueError("embedding dimension must be positive")
    v = np.zeros(dim)
    for action, desc in simplified.edits:
        for token in _edit_tokens(action, desc):
            for r in range(_HASH_SPREAD):
                digest = hashlib.blake2b(
                    f"{r}|{action.value}|{token}".encode("utf-8"),
                    digest_size=9,
                ).digest()
                idx = int.from_bytes(digest[:8], "little") % dim
                sign = 1.0 if digest[8] & 1 else -1.0
                v[idx] += sign
    norm = np.linalg.norm(v)
    if norm == 0.0:  # total cancellation: fall back to a fixed direction
        v[0] = 1.0
        norm = 1.0
    return v / norm


def _as_grid(mask: EditingMask, rate: int | None, n_mels: int | None) -> np.ndarray:
    if n_mels is None:
        return mask.values
    if rate is None:
        raise ValueError("Mel projection needs the sample rate")
    return mel_project(mask.values, rate, n_mels)


def export_mask_csv(mask: EditingMask, path, rate: int | None = None,
                    n_mels: int | None = None):
    """Numeric mask grid as CSV; optionally Mel-projected for inspection."""
    grid = _as_grid(mask, rate, n_mels)
    np.savetxt(path, grid, delimiter=",", fmt="%.6g")


def export_mask_pgm(mask: EditingMask, path, rate: int | None = None,
                    n_mels: int | None = None):
    """8-bit grayscale PGM of the mask, dark-to-light over [0, m_max].

    Rows are flipped so low frequencies sit at the bottom of the image.
    """
    grid = _as_grid(mask, rate, n_mels)
    scale = mask.m_max if n_mels is None else max(grid.max(), 1e-12)
    pixels = np.clip(grid / scale, 0.0, 1.0)
    pixels = np.flipud(np.round(pixels * 255).astype(np.uint8))
    header = f"P5\n{pixels.shape[1]} {pixels.shape[0]}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(pixels.tobytes())
