"""Waveform primitives: resampling, conditioning, STFT, Mel projection."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.signal import upfirdn

from mixedit.dsp import (
    BadWindowConfig,
    Clip,
    EmptyClip,
    Spectrogram,
    _resample_plan,
    condition,
    istft,
    mean_square,
    mel_filterbank,
    mel_project,
    overlap_add,
    resample,
    stft,
)


def tone(freq, rate, duration=1.0, kind="sin"):
    t = np.arange(int(rate * duration)) / rate
    wave = np.sin if kind == "sin" else np.cos
    return Clip(wave(2 * np.pi * freq * t), rate)


def test_clip_validation():
    with pytest.raises(ValueError):
        Clip(np.zeros((2, 4)), 16000)
    with pytest.raises(ValueError):
        Clip(np.array([0.0, np.nan]), 16000)
    with pytest.raises(ValueError):
        Clip(np.zeros(4), 0)
    c = Clip(np.zeros(4), 16000)
    with pytest.raises(ValueError):
        c.samples[0] = 1.0  # read-only buffer


def test_resample_identity_same_rate():
    c = tone(440, 16000)
    assert resample(c, 16000) is c


def test_resample_output_length():
    c = Clip(np.zeros(48000), 48000)
    assert len(resample(c, 16000)) == 16000
    c2 = Clip(np.zeros(44100), 44100)
    assert len(resample(c2, 16000)) == 16000
    c3 = Clip(np.zeros(8000), 8000)
    assert len(resample(c3, 16000)) == 16000


def test_resample_sine_accuracy_48k_to_16k():
    c = tone(1000, 48000)
    out = resample(c, 16000)
    ref = np.sin(2 * np.pi * 1000 * np.arange(len(out)) / 16000)
    trim = 400  # at least one filter length at the output rate
    err = np.abs(out.samples[trim:-trim] - ref[trim:-trim]).max()
    assert err < 1e-3


def test_resample_sine_accuracy_upsample():
    c = tone(1000, 8000)
    out = resample(c, 16000)
    ref = np.sin(2 * np.pi * 1000 * np.arange(len(out)) / 16000)
    trim = 400
    err = np.abs(out.samples[trim:-trim] - ref[trim:-trim]).max()
    assert err < 1e-3


def test_resample_stopband_attenuation():
    # A tone at the target Nyquist must come out >= 60 dB down. A cosine is
    # used so the residual does not vanish at the sample points by symmetry.
    c = tone(8000, 48000, kind="cos")
    out = resample(c, 16000).samples[400:-400]
    w = np.hanning(len(out))
    spectrum = np.abs(np.fft.rfft(out * w))
    freqs = np.fft.rfftfreq(len(out), 1 / 16000)
    ref = np.abs(np.fft.rfft(
        np.cos(2 * np.pi * 1000 * np.arange(len(out)) / 16000) * w
    )).max()
    residual = spectrum[freqs >= 7600].max()
    assert 20 * np.log10(residual / ref) < -60.0


def _dense_filter(src, tgt):
    """The resampling lowpass designed the dense way, with np.kaiser and
    np.sinc over all 2 * half + 1 taps at src * up Hz, scaled by up.
    Returns (h, half, up, down); tap t sits at filter offset t - half."""
    g = math.gcd(src, tgt)
    up, down = tgt // g, src // g
    fs_filter = src * up
    fmin = min(src, tgt)
    cutoff = 0.475 * fmin
    beta = 0.1102 * (72.0 - 8.7)
    n_est = math.ceil((72.0 - 7.95) / (
        2.285 * 2 * math.pi * 2.0 * (0.5 * fmin - cutoff) / fs_filter))
    half = down * math.ceil(max(n_est, 64 * up) / (2 * down))
    taps = 2 * half + 1
    c = 2.0 * cutoff / fs_filter
    h = c * np.sinc(c * (np.arange(taps) - half)) * np.kaiser(taps, beta)
    return h * up, half, up, down


def _polyphase_reference(x, src, tgt):
    """The same Kaiser-sinc filter applied one output sample at a time."""
    h, half, up, down = _dense_filter(src, tgt)
    out_len = round(len(x) * tgt / src)
    pad = math.ceil((half + 1) / up) + math.ceil(down * out_len / up)
    full = upfirdn(h, np.concatenate([x, np.zeros(pad)]), up=up, down=down)
    return full[half // down:half // down + out_len]


_RATE_PAIRS = [
    (8000, 16000), (11025, 16000), (22050, 16000), (24000, 16000),
    (32000, 16000), (44100, 16000), (48000, 16000), (96000, 16000),
    (16000, 8000),
]


@pytest.mark.parametrize("src,tgt", _RATE_PAIRS)
def test_resample_matches_polyphase_reference(src, tgt):
    h, _, up, _ = _dense_filter(src, tgt)
    span = len(h) // up
    _, advance, _ = _resample_plan(src, tgt)
    rng = np.random.default_rng(src)
    # One sample, shorter than the filter span, a whole number of blocks
    # plus a remainder, and half a second.
    for n in (1, max(2, span // 2), 3 * advance + 7, src // 2 + 13):
        x = 3.0 * rng.standard_normal(n)
        out = resample(Clip(x, src), tgt).samples
        ref = _polyphase_reference(x, src, tgt)
        assert len(out) == len(ref) == round(n * tgt / src)
        if len(out):
            assert np.abs(out - ref).max() <= 1e-12 * max(1.0, np.abs(x).max())


@pytest.mark.parametrize("src,tgt", _RATE_PAIRS + [(16001, 16000),
                                                   (44099, 16000)])
def test_plan_taps_equal_the_dense_filter_gathered(src, tgt):
    with np.errstate(all="raise"):
        _resample_plan.cache_clear()
        period, advance, groups = _resample_plan(src, tgt)
        h, half, up, down = _dense_filter(src, tgt)
    assert advance * up == period * down
    for p0, lo, taps in groups:
        j = np.arange(p0, p0 + taps.shape[1])
        n = j * down - np.arange(lo, lo + len(taps))[:, None] * up
        inside = np.abs(n) <= half
        want = np.where(inside, h[np.where(inside, n + half, 0)], 0.0)
        assert np.array_equal(taps, want)
        # The window holds every input each output reaches: the inputs i
        # with |j * down - i * up| <= half.
        reach = (j * down + half) // up - -(-(j * down - half) // up) + 1
        assert np.array_equal(inside.sum(axis=0), reach)


def test_plan_build_memory_follows_the_plan_not_the_filter():
    _resample_plan.cache_clear()
    tracemalloc.start()
    try:
        with np.errstate(all="raise"):
            _, _, groups = _resample_plan(44099, 16000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        _resample_plan.cache_clear()
    plan_bytes = sum(taps.nbytes for _, _, taps in groups)
    assert peak <= 1.5 * plan_bytes


def test_resample_near_coprime_rates_keep_the_plan_small():
    x = np.random.default_rng(0).standard_normal(2000)
    out = resample(Clip(x, 16001), 16000).samples
    ref = _polyphase_reference(x, 16001, 16000)
    assert np.abs(out - ref).max() <= 1e-12 * np.abs(x).max()
    h, _, _, _ = _dense_filter(16001, 16000)
    _, _, groups = _resample_plan(16001, 16000)
    assert sum(taps.size for _, _, taps in groups) <= 4 * len(h)
    assert not any(taps.flags.writeable for _, _, taps in groups)


def test_import_does_not_load_scipy(import_leaves_out):
    import_leaves_out("import mixedit.cli", "scipy")


def test_condition_pads_short_clips_with_trailing_zeros():
    c = Clip(np.ones(3 * 16000), 16000)
    out = condition(c, 5.0, seed=1)
    assert len(out) == 80000
    assert np.all(out.samples[:48000] == 1.0)
    assert np.all(out.samples[48000:] == 0.0)


def test_condition_crops_deterministically():
    rng = np.random.default_rng(0)
    c = Clip(rng.standard_normal(10 * 16000), 16000)
    a = condition(c, 5.0, seed=7)
    b = condition(c, 5.0, seed=7)
    assert np.array_equal(a.samples, b.samples)
    assert len(a) == 80000
    other = condition(c, 5.0, seed=8)
    assert not np.array_equal(a.samples, other.samples)


def test_condition_identity_and_idempotence():
    rng = np.random.default_rng(1)
    c = Clip(rng.standard_normal(80000), 16000)
    out = condition(c, 5.0, seed=3)
    assert out is c
    short = condition(Clip(rng.standard_normal(1000), 16000), 5.0, seed=3)
    again = condition(short, 5.0, seed=99)
    assert np.array_equal(short.samples, again.samples)


def test_condition_empty_clip():
    with pytest.raises(EmptyClip):
        condition(Clip(np.zeros(0), 16000), 5.0, seed=0)


def test_stft_round_trip_interior():
    rng = np.random.default_rng(2)
    c = Clip(rng.standard_normal(16000), 16000)
    back = istft(stft(c))
    assert len(back) == len(c)
    interior = slice(512, -512)
    assert np.abs(back.samples[interior] - c.samples[interior]).max() < 1e-6


def test_stft_zero_clip():
    spec = stft(Clip(np.zeros(4096), 16000))
    assert np.all(spec.frames == 0)
    assert spec.n_bins == 257


def test_stft_tone_bin():
    spec = stft(tone(1000, 16000))
    mags = spec.magnitudes().mean(axis=1)
    peak = int(np.argmax(mags))
    assert abs(peak - 32) <= 1  # 1000 / (16000 / 512) = 32


def test_stft_bad_window_config():
    c = tone(440, 16000, 0.1)
    with pytest.raises(BadWindowConfig):
        stft(c, window=512, hop=100)
    with pytest.raises(BadWindowConfig):
        stft(c, window=512, hop=512)
    with pytest.raises(BadWindowConfig):
        stft(c, window=512, hop=0)


def test_stft_short_clip_single_frame():
    spec = stft(Clip(np.ones(100), 16000))
    assert spec.n_frames == 1
    assert len(istft(spec)) == 100


def test_stft_parseval_with_window_compensation():
    # Quiet edges make the shifted-window energy compensation exact.
    rng = np.random.default_rng(3)
    x = rng.standard_normal(80000)
    x[:512] = 0.0
    x[-512:] = 0.0
    c = Clip(x, 16000)
    spec = stft(c)
    window = 512
    # rfft Parseval: per-frame energy from one-sided bins
    weights = np.full(spec.n_bins, 2.0)
    weights[0] = 1.0
    weights[-1] = 1.0
    spec_energy = float((weights[:, None] * np.abs(spec.frames) ** 2).sum()) / window
    hann_sq_sum = 1.5  # periodic Hann, hop = window/4: sum of squared shifts
    wave_energy = float(np.sum(x * x)) * hann_sq_sum
    assert abs(spec_energy - wave_energy) / wave_energy < 1e-3


def test_mel_projection_basics():
    zero = np.zeros((257, 10))
    assert np.all(mel_project(zero, 16000) == 0)
    bank = mel_filterbank(80, 257, 16000)
    assert bank.shape == (80, 257)
    assert np.all(bank.sum(axis=1) > 0)
    centers = [np.argmax(row) for row in bank]
    assert all(b >= a for a, b in zip(centers, centers[1:]))
    with pytest.raises(ValueError):
        mel_project(-zero - 1.0, 16000)


def test_mean_square():
    assert mean_square(Clip(np.array([1.0, -1.0]), 16000)) == 1.0
    assert mean_square(np.zeros(5)) == 0.0


def test_mean_square_of_int16_array_does_not_wrap():
    assert mean_square(np.array([30000, 30000], np.int16)) == 9e8


def test_spectrogram_validation():
    with pytest.raises(ValueError):
        Spectrogram(np.zeros((10, 4), dtype=complex), 512, 128, 16000, 1000)


# ---------------- overlap-add ----------------

def _overlap_add_loop(frames, hop):
    out = np.zeros((len(frames) - 1) * hop + frames.shape[1])
    for f, frame in enumerate(frames):
        out[f * hop:f * hop + len(frame)] += frame
    return out


def _istft_loop(spec):
    """Per-frame weighted overlap-add inverse, written out longhand."""
    w = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(spec.window) / spec.window)
    frames_t = np.fft.irfft(spec.frames.T, n=spec.window, axis=1)
    total = (spec.n_frames - 1) * spec.hop + spec.window
    num, den = np.zeros(total), np.zeros(total)
    for f in range(spec.n_frames):
        start = f * spec.hop
        num[start:start + spec.window] += frames_t[f] * w
        den[start:start + spec.window] += w * w
    y = (num / np.maximum(den, 1e-12))[:spec.n_samples]
    return np.concatenate([y, np.zeros(spec.n_samples - len(y))])


@pytest.mark.parametrize("ratio", [2, 3, 4])
@pytest.mark.parametrize("n_frames", [1, 2, 9])
def test_overlap_add_equals_per_frame_loop_bit_for_bit(ratio, n_frames):
    hop = 7
    frames = np.random.default_rng(10 * ratio + n_frames).standard_normal(
        (n_frames, ratio * hop))
    got = overlap_add(frames, hop)
    assert got.shape == ((n_frames - 1) * hop + ratio * hop,)
    assert np.array_equal(got, _overlap_add_loop(frames, hop))


def test_overlap_add_rejects_hop_not_dividing_width():
    with pytest.raises(BadWindowConfig):
        overlap_add(np.ones((3, 10)), 4)


@pytest.mark.parametrize("window,hop", [(64, 32), (96, 32), (64, 16)])
@pytest.mark.parametrize("offset", [-1, 0, 1, 3 * 64 + 5])
def test_istft_equals_per_frame_loop_bit_for_bit(window, hop, offset):
    n = window + offset
    x = np.random.default_rng(n).standard_normal(n)
    spec = stft(Clip(x, 16000), window, hop)
    assert np.array_equal(istft(spec).samples, _istft_loop(spec))


def test_istft_single_frame_equals_loop():
    spec = stft(Clip(np.linspace(-0.5, 0.5, 40), 16000), 64, 16)
    assert spec.n_frames == 1
    assert np.array_equal(istft(spec).samples, _istft_loop(spec))
