"""Host-speed gauge: a fixed reference kernel timed next to every batch.

The benchmark runs on a shared host whose speed moves by tens of percent
within seconds, with no steal time to show for it: a fixed kernel took
61 ms in one 4-s stretch and 112 ms in the next. Run-level medians of
wall time then spread by more than any useful bound. So every batch is
bracketed by two runs of a gauge kernel that never changes, and each
batch time is scaled by ``REFERENCE_S / gauge time``: the batch's time on
a host where the gauge takes its reference time. The gauge kernel of a
workload uses the same kinds of operations as its hot path (polyphase
resampling, framed FFTs and overlap-add, a FiLM-shaped mask network,
interpreter-bound bookkeeping), because the host's slowdowns hit
memory-bound and interpreter-bound code differently.

The gauge uses only numpy and scipy, never ``mixedit``: a change to the
program never changes the gauge, so on one host a scaled time moves in
proportion to the wall time. Its data comes from a fixed seed, not from
the benchmark seed.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.signal import upfirdn

# A typical gauge time per kernel on the host the benchmark was tuned on
# (a two-vCPU Firecracker VM, Intel Xeon at 2.0 GHz, one BLAS thread),
# whose own medians moved by a factor of two over hours. Scaled times read
# as seconds on that host at a typical moment.
REFERENCE_S = {
    "resample": 0.040,
    "edit": 0.035,
    "train": 0.060,
    "plan": 0.025,
}


def _resample_kernel(rng):
    """A 160/441 and a 1/3 polyphase resampling of 5 s of audio each,
    with Kaiser-windowed sinc filters as long as the ones the program
    designs for 44.1 kHz and 48 kHz sources (39691 and 271 taps)."""
    x44 = rng.standard_normal(5 * 44100)
    x48 = rng.standard_normal(5 * 48000)

    def lowpass(half, fs):
        n = np.arange(-half, half + 1)
        c = 2.0 * 7600.0 / fs
        return c * np.sinc(c * n) * np.kaiser(len(n), 6.2)

    h441 = 160.0 * lowpass(19845, 44100 * 160)
    h3 = lowpass(135, 48000)

    def kernel():
        upfirdn(h441, x44, up=160, down=441)
        upfirdn(h3, x48, up=1, down=3)

    return kernel


def _shift(m, off):
    out = np.zeros_like(m)
    if off > 0:
        out[:, :-off] = m[:, off:]
    elif off < 0:
        out[:, -off:] = m[:, :off]
    else:
        out[:] = m
    return out


def _film_like(rng, blocks):
    """A mask network shaped like the default ``MaskNetConfig`` (C=64,
    K=16), with ``blocks`` dilated blocks, over 5 s of 16 kHz audio:
    strided framing, (64 x 64) products on shifted copies of (64 x 10000)
    arrays, a strided overlap-add per decoder tap. The arrays are as
    large as the program's, because the host's slowdowns depend on how
    far work spills out of the caches. ``forward()`` returns what
    ``backward()`` reuses."""
    x = rng.standard_normal(80000)
    enc = rng.standard_normal((64, 16)) / 4.0
    conv = rng.standard_normal((blocks, 3, 64, 64)) / 14.0
    head = rng.standard_normal((64, 64)) / 8.0
    dec = rng.standard_normal((64, 16)) / 8.0

    def forward():
        frames = np.lib.stride_tricks.sliding_window_view(x, 16)[::8]
        h_x = enc @ frames.T
        h, tilde = h_x, []
        for i in range(blocks):
            tilde.append(0.9 * h + 0.1)
            h = np.maximum(sum(conv[i, j] @ _shift(tilde[i], (j - 1) * 2 ** i)
                               for j in range(3)), 0.0)
        prods = np.clip(head @ h, 0.0, 1.0) * h_x
        contrib = dec.T @ prods
        y = np.zeros(len(x) + 16)
        for kk in range(16):
            y[kk:kk + 8 * contrib.shape[1]:8] += contrib[kk]
        return h_x, tilde, prods

    def backward(h_x, tilde, prods):
        grad = h_x
        for i in reversed(range(blocks)):
            g = grad * (tilde[i] > 0.1)
            g @ tilde[i].T
            grad = sum(conv[i, j].T @ _shift(g, (1 - j) * 2 ** i)
                       for j in range(3))
        dec.T @ (prods @ h_x.T)

    return forward, backward


def _edit_kernel(rng):
    """A Hann-framed FFT round trip with a per-frame overlap-add loop over
    2 s, and a one-block mask-network forward pass, in about the
    proportions the IRM, PSM and FiLM editors of one record take."""
    x = rng.standard_normal(32000)
    w = np.hanning(512)
    forward, _ = _film_like(rng, 1)

    def kernel():
        frames = np.lib.stride_tricks.sliding_window_view(x, 512)[::256]
        back = np.fft.irfft(np.fft.rfft(frames * w, axis=1), n=512, axis=1)
        out = np.zeros(len(x) + 512)
        for f in range(len(back)):
            out[f * 256:f * 256 + 512] += back[f] * w
        forward()

    return kernel


def _train_kernel(rng):
    """A one-block mask-network forward and backward pass, as a training
    example takes."""
    forward, backward = _film_like(rng, 1)

    def kernel():
        backward(*forward())

    return kernel


def _plan_kernel(rng):
    """Interpreter-bound bookkeeping with small arrays, as planning,
    prompts and manifest writing take."""
    labels = [f"label{i}" for i in range(200)]
    picks = rng.integers(0, len(labels), size=40000)
    small = rng.standard_normal(256)

    def kernel():
        counts: dict[str, int] = {}
        for i in picks:
            name = labels[i]
            counts[name] = counts.get(name, 0) + 1
            if i % 8 == 0:
                float(np.dot(small, small))
        sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        ",".join(f"{k}={v}" for k, v in counts.items())

    return kernel


KERNELS = {
    "resample": _resample_kernel,
    "edit": _edit_kernel,
    "train": _train_kernel,
    "plan": _plan_kernel,
}


class Gauge:
    """Times one run of a reference kernel; ``scale(seconds, gauge_s)``
    turns a wall time into seconds on the reference host."""

    def __init__(self, kind: str):
        self.kind = kind
        self.reference_s = REFERENCE_S[kind]
        self._kernel = KERNELS[kind](np.random.default_rng(0))
        self._kernel()  # first-call costs stay out of the readings

    def read(self) -> float:
        t0 = time.perf_counter()
        self._kernel()
        return time.perf_counter() - t0

    def scale(self, seconds: float, gauge_s: float) -> float:
        return seconds * self.reference_s / gauge_s
