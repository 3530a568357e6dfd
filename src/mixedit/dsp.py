"""Waveform primitives: clips, resampling, crop/pad conditioning, STFT, and
the process's thread pool.

Everything operates on mono float64 arrays. Clips are immutable after
construction (the sample buffer is marked read-only) and safe to share
across threads.
"""

from __future__ import annotations

import math
import os
import random
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import suppress
from contextvars import copy_context
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .errors import MixeditError
from .seeding import derive_seed

DEFAULT_RATE = 16000
DEFAULT_DURATION_S = 5.0
WINDOW = 512
HOP = 128


class EmptyClip(MixeditError):
    pass


class UnsupportedRate(MixeditError):
    """A rate pair whose resampling plan is over ``_MAX_PLAN_TAPS``."""


class _Fresh:
    """Wraps an array the library has just made and shares with no one,
    so that ``Clip`` or ``EditingMask`` keeps it without a copy."""

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        self.array = array


def _take(values) -> np.ndarray:
    """The float64 array a clip or mask keeps: the array of a ``_Fresh``,
    anything else copied, so that a caller's array is never aliased."""
    if isinstance(values, _Fresh):
        return np.asarray(values.array, dtype=np.float64)
    return np.array(values, dtype=np.float64)


@dataclass(frozen=True, eq=False)
class Clip:
    """Mono waveform with its sample rate. Samples are dimensionless
    amplitudes at nominal full scale +-1.0. The clip keeps a read-only
    copy of the samples it is given."""

    samples: np.ndarray
    rate: int

    def __post_init__(self):
        arr = _take(self.samples)
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
# Taps one resampling plan may hold (64 MiB of float64). A WAV header can
# carry any rate, and a near-coprime pair's plan grows with the source
# rate: 16001 Hz needs 2.45M taps, 999983 Hz 153M.
_MAX_PLAN_TAPS = 2 ** 23
# OpenBLAS (0.3.31) sums a product in another order than a larger one
# when it has at most this many multiply-adds (its small-matrix kernel)
# or, on two BLAS threads, no more rows than columns.
_SMALL_GEMM = 100 ** 3
# A half's multiply-adds below which the pool costs time (on 2 vCPUs).
_POOL_GEMM = 3 * 10 ** 6


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
    instead of a dense ``up * down`` matrix. A plan over
    ``_MAX_PLAN_TAPS`` taps raises ``UnsupportedRate`` before any is
    built.
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
    # Output j (j * down / up in input samples) reads input i through the
    # filter at offset n = j * down - i * up, for |n| <= half: group
    # outputs p0 .. p1 - 1 read inputs lo .. hi.
    spans = [(p0, p1, -((half - p0 * down) // up),
              (half + (p1 - 1) * down) // up)
             for p0, p1 in zip(edges, edges[1:])]
    size = sum((hi - lo + 1) * (p1 - p0) for p0, p1, lo, hi in spans)
    if size > _MAX_PLAN_TAPS:
        raise UnsupportedRate(
            f"resampling {src} Hz to {tgt} Hz needs {size} filter taps, "
            f"over the limit of {_MAX_PLAN_TAPS}")
    groups = []
    for p0, p1, lo, hi in spans:
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

    The calling thread pads the input and allocates the output; the
    products then run on two halves of the output blocks, each writing
    its own rows and calling numpy only, once a half has more rows than
    columns and more multiply-adds than ``_SMALL_GEMM`` per tap group
    and ``_POOL_GEMM`` in all. Each output then sums as in one whole
    product on any number of CPUs (OpenBLAS 0.3.31, 1 or 2 BLAS threads).

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
    products = [(np.lib.stride_tricks.sliding_window_view(
        x[left + lo:], len(taps))[::advance][:n_blocks], taps,
        y[:, p0:p0 + taps.shape[1]]) for p0, lo, taps in groups]

    def run_blocks(first, end):
        for windows, taps, out in products:
            np.matmul(windows[first:end], taps, out=out[first:end])

    short = max(max(taps.shape[1] for _, _, taps in groups),
                _SMALL_GEMM // min(taps.size for _, _, taps in groups),
                _POOL_GEMM // sum(taps.size for _, _, taps in groups))
    _each(_parts(n_blocks, 2 * (short + 1), 1), run_blocks)
    return Clip(_Fresh(y.ravel()[:out_len]), target_rate)


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
        # Copied, so that the crop does not keep the whole source alive.
        return Clip(clip.samples[start:start + target], clip.rate)
    return Clip(_Fresh(np.concatenate([clip.samples, np.zeros(target - n)])),
                clip.rate)


def available_cpus() -> int:
    """The CPUs this process may run on: its affinity where the platform
    reports one, else the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _other_cpus() -> list[int]:
    """The CPUs the calling thread may run on other than the one it is on,
    or none where the platform cannot tell."""
    try:
        import ctypes
        here = ctypes.CDLL(None).sched_getcpu()
        return sorted(os.sched_getaffinity(0) - {here})
    except (AttributeError, OSError, TypeError):
        return []


# The process's pool as (threads, executor), made on first use and
# dropped in a forked child, which has none of its threads.
_pool: tuple[int, ThreadPoolExecutor] | None = None
_pool_lock = threading.Lock()


def _forget_pool() -> None:
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _shared_pool(threads: int) -> ThreadPoolExecutor:
    """The process's pool of ``threads`` threads; one of another size is
    shut down and replaced, so that it follows ``available_cpus``."""
    global _pool
    with _pool_lock:
        if _pool is None or _pool[0] != threads:
            if _pool is not None:
                _pool[1].shutdown(wait=False)
            cpus = iter(_other_cpus())

            def pin():
                cpu = next(cpus, None)
                if cpu is not None:  # a hint: the pool must still start
                    with suppress(OSError):
                        os.sched_setaffinity(0, {cpu})

            _pool = threads, ThreadPoolExecutor(threads, initializer=pin)
        return _pool[1]


def _threads(*tasks, serial: bool = False) -> None:
    """Calls every task and returns once all are done, re-raising a
    task's error; ``_each`` hands it the parts that ``_parts`` or
    ``_equal_parts`` cut. With ``serial``, one task, or
    ``available_cpus()`` at 1 the tasks run in order on the calling
    thread. Otherwise the calling thread runs the first task
    while the process's pool takes the rest; the caller then runs itself,
    last first, every task no pool thread has started. So a host that
    does not run the threads at once costs little more than the serial
    run. Each task runs in a copy of the caller's context, so
    ``np.errstate`` reaches it.

    The pool is made on first use with ``available_cpus() - 1`` threads
    and lives as long as the process; a forked child starts without one.
    Each pool thread is pinned to its own CPU other than the one the
    caller was on when the pool was made, where the platform allows: a
    2-vCPU guest kernel was seen keeping an unpinned pool thread on the
    caller's CPU while the other CPU sat idle, for no gain at all. The
    caller's own affinity is left alone.

    A task may call ``_threads`` again, as a ``synthesize`` shard does
    through ``resample``: a caller on a pool thread runs its own queued
    tasks that no other pool thread has started, so nesting cannot wait
    on itself.

    An editor, training or resampling task calls numpy only: nothing the
    benchmark tracer wraps, ``Clip`` and ``EditingMask`` included, since
    the tracer's span stack assumes one thread. Synthesis does call
    traced names; the benchmark runs it at one worker, so they run on the
    calling thread, and only ``resample``'s products reach the pool."""
    if serial or len(tasks) == 1 or (cpus := available_cpus()) == 1:
        for task in tasks:
            task()
        return
    pool = _shared_pool(cpus - 1)
    queued = [(pool.submit(copy_context().run, task), task)
              for task in tasks[1:]]
    try:
        tasks[0]()
        for future, task in reversed(queued):
            if future.cancel():  # no pool thread has started it
                task()
    finally:  # a started task ends before _threads does, even on an error
        wait([future for future, _ in queued if not future.cancel()])
    for future, _ in queued:
        if not future.cancelled():
            future.result()


def _equal_parts(n: int, count: int, grid: int = 1) -> list[tuple[int, int]]:
    """The ``count`` contiguous parts ``[first, end)`` of ``range(n)``,
    cut at ``n * i // count`` rounded down to a multiple of ``grid``."""
    bounds = [n * i // count // grid * grid for i in range(count)] + [n]
    return list(zip(bounds, bounds[1:]))


def _parts(n: int, least: int, grid: int,
           widest: int | None = None) -> list[tuple[int, int]]:
    """The parts ``[first, end)`` that ``n`` frames split into for the
    pool: one below ``least`` frames, else an even count, so that two
    threads stay busy to the end: two, or ``2 * ceil(n / widest)``. The
    cuts are ``_equal_parts``'s on a ``grid``-frame grid. The layout
    depends on ``n`` alone, and a one-thread run uses it too, so the
    thread count changes no bit."""
    if n < least:
        return [(0, n)]
    return _equal_parts(n, 2 if widest is None
                        else 2 * math.ceil(n / widest), grid)


def _each(parts, step) -> None:
    """``step(first, end)`` for each part ``[first, end)`` of ``parts``,
    all of them handed to ``_threads`` together."""
    _threads(*(partial(step, first, end) for first, end in parts))


def _by_columns(parts, step, *arrays) -> None:
    """``step(*views)`` for each part ``[first, end)`` of ``parts``, the
    views being that part's columns of ``arrays``, the parts on threads
    together (``_each``): a product keeps each output element's sum, and
    each part of a frame-major array is one run of memory."""
    _each(parts, lambda first, end: step(*(a[:, first:end] for a in arrays)))


# Periodic Hann; shifted squared copies sum to a constant for hop <= window/2.
_HANN = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(WINDOW) / WINDOW)
_HANN.setflags(write=False)


# ``_parts`` settings of the STFT path (``stft``, ``istft`` and the ideal
# masks): from 256 frames on, two halves cut at a multiple of 8 frames, so
# that each part of a ``(bins, frames)`` array starts as far into a
# 64-byte line as the whole does. Every frame's FFT and every element's
# operation is the same in any part.
_STFT_PARTS = (256, 8)


def stft(clip: Clip) -> np.ndarray:
    """Hann-analysis STFT of the clip centred in ``WINDOW // 2`` zeros at
    each end: frame f is centred on sample ``f * HOP``. Returns the
    ``(WINDOW // 2 + 1, ceil(len / HOP) + 1)`` complex matrix, frequency
    bins by time frames.

    The matrix is frame-major: it is the transpose of the ``(frames,
    bins)`` array ``rfft`` writes, so each frame's bins are contiguous
    (Fortran order) and no copy is made. Element-wise work on it keeps
    that layout, and ``istft`` hands its transpose to ``irfft`` as a
    C-contiguous array. The windowing and the ``rfft`` run on the parts
    of the frames (``_STFT_PARTS``), each writing its rows of that array."""
    n = len(clip)
    n_frames = -(-n // HOP) + 1
    x = np.zeros((n_frames - 1) * HOP + WINDOW)
    x[WINDOW // 2:WINDOW // 2 + n] = clip.samples
    frames = np.lib.stride_tricks.sliding_window_view(x, WINDOW)[::HOP]
    spectra = np.empty((n_frames, WINDOW // 2 + 1), dtype=np.complex128)

    def analyse(first, end):
        np.fft.rfft(frames[first:end] * _HANN, axis=1,
                    out=spectra[first:end])

    _each(_parts(n_frames, *_STFT_PARTS), analyse)
    return spectra.T


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
        raise ValueError(f"hop {hop} must divide frame width {width}")
    out = np.zeros((n_frames - 1) * hop + width)
    for start in range(width - hop, -1, -hop):
        block = out[start:start + n_frames * hop].reshape(n_frames, hop)
        block += frames[:, start:start + hop]
    return out


@lru_cache(maxsize=4)
def _window_sum(n_frames: int, n_samples: int) -> np.ndarray:
    """``istft``'s denominator: the overlap-add of the squared window over
    ``n_frames`` frames, cropped like the clip. Built once per shape and
    read-only, since every call of that shape shares it."""
    den = overlap_add(np.broadcast_to(_HANN * _HANN, (n_frames, WINDOW)),
                      HOP)[WINDOW // 2:WINDOW // 2 + n_samples]
    den.setflags(write=False)
    return den


def istft(frames: np.ndarray, n_samples: int) -> np.ndarray:
    """Weighted overlap-add inverse of ``stft`` for a clip of
    ``n_samples``: exact at every sample, since the centring leaves each
    one under a squared-window sum of at least 1.25. The ``irfft`` and
    the window run on the parts of the frames (``_STFT_PARTS``); the
    overlap-add and the division by the window sum run whole."""
    n_frames = frames.shape[1]
    frames_t = np.empty((n_frames, WINDOW))

    def synthesise(first, end):
        part = frames_t[first:end]
        np.fft.irfft(frames[:, first:end].T, n=WINDOW, axis=1, out=part)
        part *= _HANN

    _each(_parts(n_frames, *_STFT_PARTS), synthesise)
    num = overlap_add(frames_t, HOP)[WINDOW // 2:WINDOW // 2 + n_samples]
    num /= _window_sum(n_frames, n_samples)
    return num
