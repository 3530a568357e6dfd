"""Waveform primitives: clips, resampling, crop/pad conditioning, STFT, Mel.

Everything operates on mono float64 arrays. Clips are immutable after
construction (the sample buffer is marked read-only) and safe to share
across threads and worker processes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import MixeditError
from .seeding import derive_seed

DEFAULT_RATE = 16000
DEFAULT_DURATION_S = 5.0
DEFAULT_WINDOW = 512
DEFAULT_HOP = 128


class EmptyClip(MixeditError):
    pass


class BadWindowConfig(MixeditError):
    pass


@dataclass(frozen=True, eq=False)
class Clip:
    """Mono waveform with its sample rate. Samples are dimensionless
    amplitudes at nominal full scale +-1.0."""

    samples: np.ndarray
    rate: int

    def __post_init__(self):
        arr = np.array(self.samples, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError("clips are mono: expected a 1-D sample array")
        if self.rate <= 0:
            raise ValueError("sample rate must be positive")
        if arr.size and not np.all(np.isfinite(arr)):
            raise ValueError("clip contains non-finite samples")
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def duration(self) -> float:
        return len(self.samples) / self.rate


def as_samples(x: Clip | np.ndarray) -> np.ndarray:
    """A clip's samples, or an array-like as float64."""
    return x.samples if isinstance(x, Clip) else np.asarray(x, dtype=np.float64)


def mean_square(clip: Clip | np.ndarray) -> float:
    """Mean-square energy over the whole buffer, padding included."""
    x = as_samples(clip)
    if x.size == 0:
        return 0.0
    return float(np.mean(np.square(x)))


# Outputs per tap-matrix column group: wide enough for BLAS to pay off,
# narrow enough that each group's input window stays close to the filter
# span instead of growing with the whole resampling period.
_GROUP = 64


@lru_cache(maxsize=32)
def _resample_plan(src: int, tgt: int) -> tuple[int, int, tuple]:
    """Tap matrices for resampling ``src`` -> ``tgt``, built once per pair.

    The filter is a Kaiser-windowed sinc lowpass at ``src * up`` Hz,
    scaled by ``up``. Cutoff sits at 0.475 * min(rates); the stopband
    edge is the lower Nyquist (0.5 * min); length follows the Kaiser
    estimate for 72 dB so the alias band is at least 60 dB down, with 64
    taps per phase as a floor. Half-length ``half`` is a multiple of
    ``down`` so the group delay lands on the output grid exactly. The
    filter is evaluated only at the plan's taps, never as the dense
    ``2 * half + 1``-tap array, which for a near-coprime pair is larger
    than the plan itself.

    Outputs come in blocks of ``period`` samples (a multiple of ``up``);
    each block's input window sits ``advance`` samples after the last
    one's, and every block uses the same taps. Returns
    ``(period, advance, groups)``. Each group ``(p0, lo, taps)`` holds a
    read-only ``(W, B)`` matrix for block outputs ``p0 .. p0 + B - 1``:
    output ``b * period + p0 + q`` is
    ``sum_w x[b * advance + lo + w] * taps[w, q]``, with ``x`` zero
    outside the clip. A period longer than ``_GROUP`` outputs is split
    into groups, so each window spans the filter plus about
    ``_GROUP * down / up`` inputs; for a near-coprime pair such as
    16001 -> 16000 the plan then holds under 4x the filter's taps
    instead of a dense ``up * down`` matrix.
    """
    g = math.gcd(src, tgt)
    up, down = tgt // g, src // g
    fs_filter = src * up
    fmin = min(src, tgt)
    cutoff = 0.475 * fmin
    transition = 2.0 * (0.5 * fmin - cutoff)
    atten = 72.0
    beta = 0.1102 * (atten - 8.7)
    n_est = math.ceil((atten - 7.95) / (2.285 * 2 * math.pi * transition / fs_filter))
    n_est = max(n_est, 64 * up)
    half = down * math.ceil(n_est / (2 * down))
    c = 2.0 * cutoff / fs_filter  # cutoff as a fraction of Nyquist
    k = max(1, _GROUP // up)  # whole periods per block
    period, advance = k * up, k * down
    n_groups = -(-period // _GROUP)
    edges = [round(i * period / n_groups) for i in range(n_groups + 1)]
    groups = []
    for p0, p1 in zip(edges, edges[1:]):
        # Output j (j * down / up in input samples) reads input i through
        # the filter at offset n = j * down - i * up, for |n| <= half.
        lo = -((half - p0 * down) // up)
        hi = (half + (p1 - 1) * down) // up
        n = np.arange(p0, p1) * down - np.arange(lo, hi + 1)[:, None] * up
        inside = np.abs(n) <= half
        m = n[inside]
        # The window and sinc as np.kaiser and np.sinc compute them, in
        # their order, so each tap equals a dense np.kaiser design's bit
        # for bit.
        window = np.i0(beta * np.sqrt(1 - (m / float(half)) ** 2.0)) / np.i0(beta)
        taps = np.zeros(n.shape)
        taps[inside] = c * np.sinc(c * m) * window * up
        taps.setflags(write=False)
        groups.append((p0, lo, taps))
    return period, advance, tuple(groups)


def resample(clip: Clip, target_rate: int) -> Clip:
    """Band-limited resampling with a Kaiser-windowed sinc filter.

    Computed as block polyphase matrix products: one ``(n_blocks, W) @
    (W, B)`` product per tap group over a strided window view of the
    zero-padded input, with the tap matrices cached per rate pair and the
    filter evaluated only at their taps (see ``_resample_plan``). Agrees
    with a per-sample polyphase filter (``scipy.signal.upfirdn`` with the
    same taps) to within ``1e-12 * max(1, max|x|)``; only the summation
    order differs.

    Output length is round(len * target / source). Same-rate input is
    returned unchanged.
    """
    if target_rate <= 0:
        raise ValueError("target rate must be positive")
    if target_rate == clip.rate:
        return clip
    out_len = round(len(clip) * target_rate / clip.rate)
    if out_len == 0:
        return Clip(np.zeros(0), target_rate)
    period, advance, groups = _resample_plan(clip.rate, target_rate)
    n_blocks = -(-out_len // period)
    left = -groups[0][1]  # the first group reaches furthest back
    end = max((n_blocks - 1) * advance + lo + len(taps)
              for _, lo, taps in groups)
    x = np.concatenate([np.zeros(left), clip.samples,
                        np.zeros(max(0, end - len(clip)))])
    y = np.empty((n_blocks, period))
    for p0, lo, taps in groups:
        windows = np.lib.stride_tricks.sliding_window_view(
            x[left + lo:], len(taps))[::advance][:n_blocks]
        y[:, p0:p0 + taps.shape[1]] = windows @ taps
    return Clip(y.ravel()[:out_len], target_rate)


def condition(clip: Clip, duration_s: float = DEFAULT_DURATION_S,
              seed: int = 0) -> Clip:
    """Fix a clip to an exact duration: random-start crop if too long
    (seeded), zero-padding at the end if too short."""
    if len(clip) == 0:
        raise EmptyClip("cannot condition an empty clip")
    target = round(duration_s * clip.rate)
    n = len(clip)
    if n == target:
        return clip
    if n > target:
        start = random.Random(derive_seed(seed)).randrange(n - target + 1)
        return Clip(clip.samples[start:start + target], clip.rate)
    return Clip(np.concatenate([clip.samples, np.zeros(target - n)]), clip.rate)


@dataclass(frozen=True, eq=False)
class Spectrogram:
    """Complex STFT frames, frequency bins by time frames."""

    frames: np.ndarray  # (window//2 + 1, n_frames)
    window: int
    hop: int
    rate: int
    n_samples: int

    def __post_init__(self):
        if self.frames.shape[0] != self.window // 2 + 1:
            raise ValueError("bin count must be window//2 + 1")
        if self.frames.shape[1] < 1:
            raise ValueError("need at least one frame")

    @property
    def n_bins(self) -> int:
        return self.frames.shape[0]

    @property
    def n_frames(self) -> int:
        return self.frames.shape[1]

    def magnitudes(self) -> np.ndarray:
        return np.abs(self.frames)


def _check_window(window: int, hop: int):
    if window <= 0 or hop <= 0:
        raise BadWindowConfig("window and hop must be positive")
    if window % hop != 0 or window // hop < 2:
        raise BadWindowConfig(
            f"hop {hop} must divide window {window} at least twice over "
            "for the overlap-add scheme"
        )


def _hann(window: int) -> np.ndarray:
    # Periodic Hann; shifted squared copies sum to a constant for hop <= window/2.
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(window) / window)


def stft(clip: Clip, window: int = DEFAULT_WINDOW, hop: int = DEFAULT_HOP) -> Spectrogram:
    """Hann-analysis STFT. The signal end is zero-padded to a whole frame."""
    _check_window(window, hop)
    x = clip.samples
    n = len(x)
    n_frames = max(1, math.ceil((n - window) / hop) + 1)
    padded_len = (n_frames - 1) * hop + window
    if padded_len > n:
        x = np.concatenate([x, np.zeros(padded_len - n)])
    frames = np.lib.stride_tricks.sliding_window_view(x, window)[::hop]
    spec = np.fft.rfft(frames * _hann(window), axis=1).T
    return Spectrogram(np.ascontiguousarray(spec), window, hop, clip.rate, n)


def overlap_add(frames: np.ndarray, hop: int) -> np.ndarray:
    """Sum of ``(n_frames, width)`` frames laid ``hop`` samples apart:
    frame f adds into ``out[f * hop : f * hop + width]``. ``hop`` must
    divide ``width``.

    Runs one slice-add per ``hop``-wide column block, last block first,
    so every output sample adds its frames in ascending frame order:
    the result equals a per-frame loop bit for bit.
    """
    n_frames, width = frames.shape
    if width % hop != 0:
        raise BadWindowConfig(f"hop {hop} must divide frame width {width}")
    out = np.zeros((n_frames - 1) * hop + width)
    for start in range(width - hop, -1, -hop):
        block = out[start:start + n_frames * hop].reshape(n_frames, hop)
        block += frames[:, start:start + hop]
    return out


def istft(spec: Spectrogram) -> Clip:
    """Weighted overlap-add inverse; exact on the interior for any
    hop that divides the window."""
    w = _hann(spec.window)
    frames_t = np.fft.irfft(spec.frames.T, n=spec.window, axis=1)
    frames_t *= w
    num = overlap_add(frames_t, spec.hop)
    den = overlap_add(np.broadcast_to(w * w, frames_t.shape), spec.hop)
    y = num / np.maximum(den, 1e-12)
    y = y[:spec.n_samples]
    if len(y) < spec.n_samples:
        y = np.concatenate([y, np.zeros(spec.n_samples - len(y))])
    return Clip(y, spec.rate)


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(n_mels: int, n_bins: int, rate: int) -> np.ndarray:
    """Triangular Mel filterbank from 0 Hz to Nyquist, (n_mels, n_bins).
    Full-band coverage: every row has positive weight."""
    window = 2 * (n_bins - 1)
    bin_freqs = np.arange(n_bins) * rate / window
    edges = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(rate / 2.0),
                                  n_mels + 2))
    bank = np.zeros((n_mels, n_bins))
    for m in range(n_mels):
        lo, center, hi = edges[m], edges[m + 1], edges[m + 2]
        rising = (bin_freqs - lo) / max(center - lo, 1e-12)
        falling = (hi - bin_freqs) / max(hi - center, 1e-12)
        bank[m] = np.maximum(0.0, np.minimum(rising, falling))
        if not bank[m].any():  # very narrow triangle: grab the nearest bin
            bank[m, int(np.argmin(np.abs(bin_freqs - center)))] = 1.0
    return bank


def mel_project(magnitudes: np.ndarray, rate: int, n_mels: int = 80) -> np.ndarray:
    """Project non-negative magnitude frames onto the Mel scale
    (export/visualization only)."""
    mags = np.asarray(magnitudes, dtype=np.float64)
    if mags.ndim != 2:
        raise ValueError("expected a (bins, frames) magnitude matrix")
    if mags.size and mags.min() < 0:
        raise ValueError("magnitudes must be non-negative")
    bank = mel_filterbank(n_mels, mags.shape[0], rate)
    return bank @ mags
