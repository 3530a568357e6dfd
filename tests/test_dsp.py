"""Waveform primitives: resampling, conditioning, STFT."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.signal import upfirdn

from mixedit import dsp
from mixedit.dsp import (
    HOP,
    WINDOW,
    Clip,
    EmptyClip,
    _Fresh,
    _resample_plan,
    _window_sum,
    condition,
    istft,
    mean_square,
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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("fresh", [False, True])
def test_clip_rejects_non_finite_samples(bad, fresh):
    samples = np.zeros(8)
    samples[5] = bad
    with pytest.raises(ValueError):
        Clip(_Fresh(samples) if fresh else samples, 16000)


def test_clip_copies_a_callers_array_and_keeps_a_fresh_one():
    samples = np.zeros(8)
    clip = Clip(samples, 16000)
    samples[0] = 1.0
    assert clip.samples[0] == 0.0
    assert not np.shares_memory(clip.samples, samples)
    samples.setflags(write=False)
    assert not np.shares_memory(Clip(samples, 16000).samples, samples)
    fresh = np.zeros(8)
    assert Clip(_Fresh(fresh), 16000).samples is fresh
    assert not fresh.flags.writeable


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


def _whole_product_resample(clip, target_rate):
    """``resample`` as it ran before its products had threads: one product
    per tap group over every block at once."""
    out_len = round(len(clip) * target_rate / clip.rate)
    period, advance, groups = _resample_plan(clip.rate, target_rate)
    n_blocks = -(-out_len // period)
    left = -groups[0][1]
    end = max((n_blocks - 1) * advance + lo + len(taps)
              for _, lo, taps in groups)
    x = np.concatenate([np.zeros(left), clip.samples,
                        np.zeros(max(0, end - len(clip)))])
    y = np.empty((n_blocks, period))
    for p0, lo, taps in groups:
        windows = np.lib.stride_tricks.sliding_window_view(
            x[left + lo:], len(taps))[::advance][:n_blocks]
        y[:, p0:p0 + taps.shape[1]] = windows @ taps
    return y.ravel()[:out_len]


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("src,tgt", _RATE_PAIRS)
def test_resample_on_block_halves_equals_the_whole_product(monkeypatch, src,
                                                           tgt, cpus):
    monkeypatch.setattr(dsp, "available_cpus", lambda: cpus)
    period, _, _ = _resample_plan(src, tgt)
    least = dsp._RESAMPLE_PARTS[0]
    rng = np.random.default_rng(src)
    # One to three blocks, every count within 8 of the split, and a few
    # thousand blocks; each clip ends half a period into its last block.
    for n_blocks in (1, 2, 3, *range(least - 8, least + 9), 4099):
        n = (n_blocks * period - period // 2) * src // tgt
        clip = Clip(3.0 * rng.standard_normal(n), src)
        out = resample(clip, tgt).samples
        assert -(-len(out) // period) == n_blocks
        expected = _whole_product_resample(clip, tgt)
        assert out.tobytes() == expected.tobytes(), (src, n_blocks)


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


@pytest.mark.parametrize("n", [0, 1, 100, 16000, 80001])
def test_stft_round_trip_whole_clip(n):
    x = 3.0 * np.random.default_rng(n).standard_normal(n)
    frames = stft(Clip(x, 16000))
    assert frames.shape == (WINDOW // 2 + 1, -(-n // HOP) + 1)
    back = istft(frames, n)
    assert len(back) == n
    if n:
        assert np.abs(back - x).max() <= 1e-12 * max(1.0, np.abs(x).max())


def test_stft_zero_clip():
    frames = stft(Clip(np.zeros(4096), 16000))
    assert np.all(frames == 0)
    assert frames.shape[0] == 257


def test_stft_tone_bin():
    mags = np.abs(stft(tone(1000, 16000))).mean(axis=1)
    peak = int(np.argmax(mags))
    assert abs(peak - 32) <= 1  # 1000 / (16000 / 512) = 32


def test_stft_parseval_with_window_compensation():
    # Quiet edges make the shifted-window energy compensation exact.
    rng = np.random.default_rng(3)
    x = rng.standard_normal(80000)
    x[:512] = 0.0
    x[-512:] = 0.0
    frames = stft(Clip(x, 16000))
    # rfft Parseval: per-frame energy from one-sided bins
    weights = np.full(frames.shape[0], 2.0)
    weights[0] = 1.0
    weights[-1] = 1.0
    spec_energy = float((weights[:, None] * np.abs(frames) ** 2).sum()) / WINDOW
    hann_sq_sum = 1.5  # periodic Hann, hop = window/4: sum of squared shifts
    wave_energy = float(np.sum(x * x)) * hann_sq_sum
    assert abs(spec_energy - wave_energy) / wave_energy < 1e-3


def test_mean_square():
    assert mean_square(Clip(np.array([1.0, -1.0]), 16000)) == 1.0
    assert mean_square(np.zeros(5)) == 0.0


def test_mean_square_of_int16_array_does_not_wrap():
    assert mean_square(np.array([30000, 30000], np.int16)) == 9e8


# ---------------- overlap-add ----------------

def _overlap_add_loop(frames, hop):
    out = np.zeros((len(frames) - 1) * hop + frames.shape[1])
    for f, frame in enumerate(frames):
        out[f * hop:f * hop + len(frame)] += frame
    return out


def _istft_loop(frames, n_samples):
    """Per-frame weighted overlap-add inverse over the centred framing,
    written out longhand."""
    w = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(WINDOW) / WINDOW)
    frames_t = np.fft.irfft(frames.T, n=WINDOW, axis=1)
    total = (len(frames_t) - 1) * HOP + WINDOW
    num, den = np.zeros(total), np.zeros(total)
    for f, frame in enumerate(frames_t):
        start = f * HOP
        num[start:start + WINDOW] += frame * w
        den[start:start + WINDOW] += w * w
    keep = slice(WINDOW // 2, WINDOW // 2 + n_samples)
    return num[keep] / den[keep]


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
    with pytest.raises(ValueError, match="must divide"):
        overlap_add(np.ones((3, 10)), 4)


def _assert_istft_equals_loop(n):
    x = np.random.default_rng(n).standard_normal(n)
    frames = stft(Clip(x, 16000))
    assert np.array_equal(istft(frames, n), _istft_loop(frames, n))


@pytest.mark.parametrize("window,hop", [(64, 32), (96, 32), (64, 16)])
@pytest.mark.parametrize("offset", [-1, 0, 1, 3 * 64 + 5])
def test_istft_equals_per_frame_loop_bit_for_bit(window, hop, offset):
    # A clip of window // hop hops, give or take a sample, and a ragged
    # multi-frame one, laid on the fixed WINDOW/HOP framing.
    _assert_istft_equals_loop((window // hop) * HOP + offset)


@pytest.mark.parametrize("n", [1, 100, 16000, 80001])
def test_istft_equals_per_frame_loop_at_clip_lengths(n):
    _assert_istft_equals_loop(n)


@pytest.mark.parametrize("n", [5 * 16000, WINDOW - 212, 3 * 16000 + 37])
def test_stft_is_the_frame_major_rfft_without_a_copy(n):
    x = np.random.default_rng(n).standard_normal(n)
    frames = stft(Clip(x, 16000))
    assert frames.flags.f_contiguous and frames.T.flags.c_contiguous
    padded = np.zeros((frames.shape[1] - 1) * HOP + WINDOW)
    padded[WINDOW // 2:WINDOW // 2 + n] = x
    hann = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(WINDOW) / WINDOW)
    windows = np.lib.stride_tricks.sliding_window_view(padded, WINDOW)[::HOP]
    contiguous = np.ascontiguousarray(np.fft.rfft(windows * hann, axis=1).T)
    assert np.array_equal(frames, contiguous)
    assert np.array_equal(istft(frames, n), istft(contiguous, n))


def test_istft_window_sum_is_cached_read_only():
    frames = stft(Clip(np.random.default_rng(0).standard_normal(1000), 16000))
    first = istft(frames, 1000)
    den = _window_sum(frames.shape[1], 1000)
    assert den is _window_sum(frames.shape[1], 1000)
    assert not den.flags.writeable
    with pytest.raises(ValueError):
        den[0] = 1.0
    assert not np.shares_memory(first, den)
    assert np.array_equal(istft(frames, 1000), first)


def test_istft_single_frame_equals_loop():
    # Only the empty clip fits in one centred frame.
    frames = stft(Clip(np.zeros(0), 16000))
    assert frames.shape[1] == 1
    assert np.array_equal(istft(frames, 0), _istft_loop(frames, 0))
