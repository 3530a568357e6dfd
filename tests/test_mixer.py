"""Gain assignment accuracy and mixture synthesis algebra."""

import numpy as np
import pytest

from mixedit.core import Action, AudioSignature, SpeechSignature, StyleVector
from mixedit.dsp import Clip, mean_square
from mixedit.metrics import snr
from mixedit.mixer import (
    AUDIO_SNR_RANGE,
    SPEECH_SNR_RANGES,
    BadLevel,
    LengthMismatch,
    MixturePair,
    SilentSource,
    apply_gains,
    assign_gains,
    draw_assigned_snrs,
    gain_for,
    mix,
    reference_index,
    target_mixture,
    weighted_sum,
)

K, R, U, D = Action.KEEP, Action.REMOVE, Action.VOLUME_UP, Action.VOLUME_DOWN


def spk(volume="normal", gender="female"):
    return SpeechSignature(StyleVector.from_strings(
        gender, "normal", "normal", volume, "neutral"))


def noise_clip(n=8000, seed=0, scale=1.0):
    return Clip(scale * np.random.default_rng(seed).standard_normal(n), 16000)


def test_gain_for_examples():
    assert gain_for(1.0, 1.0, 0.0) == 1.0
    assert gain_for(4.0, 1.0, 0.0) == 0.5
    assert gain_for(1.0, 1.0, 6.0205999132796239) == pytest.approx(2.0, abs=1e-12)


def test_assign_gains_achieves_requested_snr():
    rng = np.random.default_rng(1)
    labels = ["dog", "rain", "car horn"]
    for case in range(200):
        clips = [noise_clip(seed=100 + case * 7 + i,
                            scale=float(rng.uniform(0.1, 3.0)))
                 for i in range(3)]
        sigs = [AudioSignature(labels[i]) if i else spk() for i in range(3)]
        snrs = draw_assigned_snrs(sigs, seed=case)
        scaled = apply_gains(clips, assign_gains(clips, sigs, snrs))
        ref = scaled[reference_index(sigs)]
        for clip, snr_db in zip(scaled, snrs, strict=True):
            achieved = 10 * np.log10(mean_square(clip) / mean_square(ref))
            assert abs(achieved - snr_db) < 1e-9


def test_assign_gains_plays_any_planned_level():
    """Levels off the drawn ranges, the reference's own included, are
    played relative to the reference's conditioned energy."""
    clips = [noise_clip(seed=26, scale=0.3), noise_clip(seed=27, scale=2.0),
             noise_clip(seed=28)]
    sigs = [AudioSignature("dog"), spk(), AudioSignature("rain")]
    energies = [mean_square(c) for c in clips]
    for snrs in ([2.5, 0.0, -40.0], [12.0, -7.5, 0.0], [0.0, 0.0, 0.0]):
        gains = assign_gains(clips, sigs, snrs)
        for clip, gain, snr_db in zip(clips, gains, snrs, strict=True):
            achieved = 10 * np.log10(mean_square(clip) * gain ** 2
                                     / energies[1])
            assert abs(achieved - snr_db) < 1e-9
    assert assign_gains(clips, sigs, [1.0, 0.0, -1.0])[1] == 1.0


@pytest.mark.parametrize("snr_db", [1e6, -1e6, float("inf"), float("-inf"),
                                    float("nan")])
def test_assign_gains_rejects_a_level_without_a_finite_positive_gain(snr_db):
    clips = [noise_clip(seed=29), noise_clip(seed=30)]
    sigs = [spk(), AudioSignature("dog")]
    with pytest.raises(BadLevel):
        assign_gains(clips, sigs, [0.0, snr_db])


def test_assign_gains_snr_ranges():
    sigs = [
        spk(volume="normal"),                # reference, 0 dB
        spk(volume="low", gender="male"),
        AudioSignature("dog"),
    ]
    assert reference_index(sigs) == 0
    for seed in range(300):
        snrs = draw_assigned_snrs(sigs, seed)
        assert snrs[0] == 0.0
        lo, hi = SPEECH_SNR_RANGES[sigs[1].style.volume]
        assert lo <= snrs[1] <= hi
        lo, hi = AUDIO_SNR_RANGE
        assert lo <= snrs[2] <= hi


def test_assign_gains_reference_is_first_speech():
    sigs = [AudioSignature("dog"), spk()]
    assert reference_index(sigs) == 1
    assert draw_assigned_snrs(sigs, seed=0)[1] == 0.0
    clips = [noise_clip(seed=4), noise_clip(seed=5, scale=3.0)]
    assert assign_gains(clips, sigs, [-2.0, 0.0])[1] == 1.0
    audio_only = [AudioSignature("dog"), AudioSignature("rain")]
    assert reference_index(audio_only) == 0
    assert draw_assigned_snrs(audio_only, seed=0)[0] == 0.0


def test_assign_gains_order_independent_draws():
    base = [spk(), AudioSignature("dog"), AudioSignature("rain")]
    swapped = [base[0], base[2], base[1]]
    a = draw_assigned_snrs(base, seed=5)
    b = draw_assigned_snrs(swapped, seed=5)
    by_sig_a = dict(zip(["spk", "dog", "rain"], a))
    by_sig_b = dict(zip(["spk", "rain", "dog"], b))
    assert by_sig_a == by_sig_b
    # The gains follow the levels, not the order of the sources.
    clips = [noise_clip(seed=8), noise_clip(seed=9), noise_clip(seed=10)]
    gains_a = assign_gains(clips, base, a)
    gains_b = assign_gains([clips[0], clips[2], clips[1]], swapped, b)
    assert gains_a == (gains_b[0], gains_b[2], gains_b[1])


def test_assign_gains_deterministic():
    sigs = [spk(), AudioSignature("dog")]
    assert draw_assigned_snrs(sigs, seed=3) == draw_assigned_snrs(sigs, seed=3)
    assert draw_assigned_snrs(sigs, seed=3) != draw_assigned_snrs(sigs, seed=4)
    clips = [noise_clip(seed=11), noise_clip(seed=12)]
    snrs = draw_assigned_snrs(sigs, seed=3)
    assert assign_gains(clips, sigs, snrs) == assign_gains(clips, sigs, snrs)


def test_assign_gains_silent_source():
    clips = [noise_clip(seed=13), Clip(np.zeros(8000), 16000)]
    with pytest.raises(SilentSource):
        assign_gains(clips, [spk(), AudioSignature("dog")], [0.0, 1.0])


def test_mix_cancellation_and_identity():
    s = noise_clip(seed=14)
    neg = Clip(-s.samples, s.rate)
    assert np.all(mix([s, neg]).samples == 0.0)
    assert np.array_equal(mix([s]).samples, s.samples)


def test_mix_length_mismatch():
    with pytest.raises(LengthMismatch):
        mix([noise_clip(8000), noise_clip(4000)])


def test_mix_uncorrelated_energy_adds():
    a, b = noise_clip(seed=15, n=80000), noise_clip(seed=16, n=80000)
    combined = mean_square(mix([a, b]))
    separate = mean_square(a) + mean_square(b)
    assert abs(combined - separate) / separate < 0.02


def test_target_mixture_examples():
    srcs = [noise_clip(seed=17), noise_clip(seed=18)]
    assert np.array_equal(target_mixture(srcs, [K, K]).samples,
                          mix(srcs).samples)
    assert np.allclose(target_mixture(srcs, [D, D]).samples,
                       0.5 * mix(srcs).samples)
    extracted = target_mixture(srcs, [K, R])
    assert np.array_equal(extracted.samples, srcs[0].samples)


def test_target_mixture_linearity_in_alphas():
    srcs = [noise_clip(seed=19), noise_clip(seed=20), noise_clip(seed=21)]
    a = [0.0, 2.0, 0.5]
    b = [1.0, 0.5, 2.0]
    lhs = weighted_sum(srcs, a).samples + weighted_sum(srcs, b).samples
    rhs = weighted_sum(srcs, [x + y for x, y in zip(a, b)]).samples
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_ovc_analytic_snr():
    srcs = [noise_clip(seed=22), noise_clip(seed=23)]
    x = mix(srcs)
    up = target_mixture(srcs, [U, U])
    down = target_mixture(srcs, [D, D])
    assert snr(x, up).value == pytest.approx(6.0206, abs=1e-6)
    assert snr(x, down).value == pytest.approx(0.0, abs=1e-6)


def test_mixture_pair_peak_rescale():
    srcs = [Clip(np.full(100, 0.9), 16000), Clip(np.full(100, 0.8), 16000)]
    pair = MixturePair.build(srcs, [K, K])
    assert pair.scale < 1.0
    assert np.abs(pair.input.samples).max() == pytest.approx(0.99, abs=1e-12)
    # common factor preserves the input/target ratio
    assert np.allclose(pair.target.samples, pair.input.samples)
    for clip, unscaled in ((pair.input, mix(srcs)),
                           (pair.target, target_mixture(srcs, [K, K]))):
        assert np.array_equal(clip.samples, unscaled.samples * pair.scale)


def test_mixture_pair_no_rescale_when_in_range():
    srcs = [noise_clip(seed=24, scale=0.01), noise_clip(seed=25, scale=0.01)]
    pair = MixturePair.build(srcs, [K, R])
    assert pair.scale == 1.0
    assert np.array_equal(pair.input.samples, mix(srcs).samples)
