"""Acceptance suite: one test per release criterion, at fixed tolerances.

Each test prints a single PASS line on success (run with ``pytest -s``
or ``-v`` to see them); a failure prints the same tag via the assert
message. Runtime bounds are asserted where the criterion states one.
"""

import itertools
import math
import time

import numpy as np
import pytest

from mixedit.core import (
    Action,
    AudioSignature,
    SpeechSignature,
    StyleVector,
    validate_instruction,
)
from mixedit.dataset import (
    build_demo_catalog,
    generate_manifest,
    ingest,
    partition,
    synthesize,
)
from mixedit.dsp import Clip
from mixedit.editor import (
    FilmMaskNet,
    MaskKind,
    MaskNetConfig,
    ideal_mask,
    mask_edit,
    oracle_edit,
)
from mixedit.editor.film import snr_loss_and_grad, train_toy, TrainExample
from mixedit.metrics import edit_loss, pit_snr, si_sdr, snr, snri
from mixedit.mixer import (
    AUDIO_SNR_RANGE,
    SPEECH_SNR_RANGES,
    apply_gains,
    assign_gains,
    draw_assigned_snrs,
    mix,
    reference_index,
    target_mixture,
)
from mixedit.prompt import TemplateId, parse, render, simplify
from mixedit.taskspace import (
    Composition,
    Task,
    classify,
    count_table,
    defined_tasks,
    enumerate_edits,
)

RATE = 16000

K, R, U, D = Action.KEEP, Action.REMOVE, Action.VOLUME_UP, Action.VOLUME_DOWN


def _report(tag: str):
    print(f"\nACCEPTANCE {tag}: PASS")


def test_acceptance_1_task_space_exactness():
    started = time.perf_counter()
    comp = Composition(2, 2)
    expected = {
        Task.TSE: 2, Task.TSR: 2, Task.TS_UP: 2, Task.TS_DOWN: 2,
        Task.SE: 1, Task.SR: 1, Task.S_UP: 3, Task.S_DOWN: 3,
        Task.TAE: 2, Task.TAR: 2, Task.TA_UP: 2, Task.TA_DOWN: 2,
        Task.ME: 4, Task.MVC: 64, Task.MEVC: 160, Task.OVC: 2,
    }
    table = count_table(comp)
    assert table == expected, "1: count table deviates"
    assert sum(table.values()) == 254, "1: total is not 254"
    total = 0
    for task in defined_tasks(comp):
        for vec in enumerate_edits(task, comp):
            assert classify(vec, comp) is task, "1: classify/enumerate mismatch"
            total += 1
    assert total == 254, "1: enumeration does not cover 254 edits"
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"1: runtime {elapsed:.2f}s exceeds 1s"
    _report("1 task-space exactness (254 edits, round trip, "
            f"{elapsed * 1000:.0f} ms)")


def test_acceptance_2_mixing_accuracy():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    volumes = ["low", "normal", "high"]
    labels = ["dog", "rain", "engine", "piano"]
    checked = 0
    for case in range(1000):
        clips, signatures = [], []
        for i in range(2):
            style = StyleVector.from_strings(
                "female" if i == 0 else "male", "normal", "normal",
                volumes[case % 3], "neutral")
            clips.append(Clip(rng.standard_normal(16000) *
                              float(rng.uniform(0.05, 0.5)), RATE))
            signatures.append(SpeechSignature(style))
        for i in range(2):
            clips.append(Clip(rng.standard_normal(16000) *
                              float(rng.uniform(0.05, 0.5)), RATE))
            signatures.append(AudioSignature(labels[(case + i) % 4]))
        snrs = draw_assigned_snrs(signatures, seed=case)
        scaled = apply_gains(clips, assign_gains(clips, signatures, snrs))
        ref = reference_index(signatures)
        ref_energy = float(np.mean(scaled[ref].samples ** 2))
        for i, clip in enumerate(scaled):
            achieved = 10.0 * math.log10(
                float(np.mean(clip.samples ** 2)) / ref_energy)
            assert abs(achieved - snrs[i]) < 1e-9, \
                f"2: SNR error {abs(achieved - snrs[i]):.2e} dB"
            checked += 1
        for i, sig in enumerate(signatures):
            if i == ref:
                continue
            if isinstance(sig, SpeechSignature):
                lo, hi = SPEECH_SNR_RANGES[sig.style.volume]
            else:
                lo, hi = AUDIO_SNR_RANGE
            assert lo <= snrs[i] <= hi, "2: SNR out of range"
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"2: runtime {elapsed:.1f}s exceeds 10s"
    _report(f"2 mixing accuracy ({checked} SNRs within 1e-9 dB, "
            f"{elapsed:.1f} s)")


def test_acceptance_3_editing_algebra():
    rng = np.random.default_rng(3)
    sources = [Clip(rng.standard_normal(16000) * 0.2, RATE) for _ in range(4)]
    for vec in itertools.product((K, R, U, D), repeat=2):
        pair = [sources[0], sources[1]]
        assert np.array_equal(
            oracle_edit(pair, vec).samples,
            target_mixture(pair, vec).samples,
        ), "3: oracle differs from target synthesis"
    x = mix(sources)
    up = target_mixture(sources, [U, U, U, U])
    down = target_mixture(sources, [D, D, D, D])
    assert abs(snr(x, up).value - 6.0206) < 1e-6, "3: all-up SNR wrong"
    assert abs(snr(x, down).value - 0.0) < 1e-6, "3: all-down SNR wrong"
    _report("3 editing algebra (oracle bit-exact, 6.0206/0 dB baselines)")


def test_acceptance_4_prompt_round_trip():
    started = time.perf_counter()
    spk1 = SpeechSignature(StyleVector.from_strings(
        "female", "normal", "high", "high", "happy"))
    spk2 = SpeechSignature(StyleVector.from_strings(
        "male", "low", "low", "normal", "sad"))
    aud1, aud2 = AudioSignature("playing cello"), AudioSignature("dog barking")
    labels = {"playing cello", "dog barking"}
    setups = [
        (Composition(2, 2), [spk1, spk2, aud1, aud2], 100),
        (Composition(2, 1), [spk1, spk2, aud1], 100),
        (Composition(1, 2), [spk1, aud1, aud2], 100),
        (Composition(2, 0), [spk1, spk2], 100),
        (Composition(0, 2), [aud1, aud2], 100),
    ]
    checked = 0
    for comp, sigs, n_seeds in setups:
        for task in defined_tasks(comp):
            for vec in enumerate_edits(task, comp):
                instruction = validate_instruction(list(zip(vec, sigs)))
                for seed in range(n_seeds):
                    simp = simplify(instruction, seed=seed)
                    template = list(TemplateId)[seed % 3]
                    prompt = render(simp, template, seed=seed * 31 + 7)
                    back = parse(prompt.text, labels)
                    assert back.as_set() == simp.as_set(), \
                        f"4: round trip failed for {prompt.text!r}"
                    checked += 1
    # full template coverage on the training composition
    comp, sigs, _ = setups[0]
    for task in defined_tasks(comp):
        for vec in enumerate_edits(task, comp):
            instruction = validate_instruction(list(zip(vec, sigs)))
            for seed in range(100):
                simp = simplify(instruction, seed=seed)
                for template in TemplateId:
                    prompt = render(simp, template, seed=seed)
                    back = parse(prompt.text, labels)
                    assert back.as_set() == simp.as_set(), \
                        f"4: round trip failed for {prompt.text!r}"
                    checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"4: runtime {elapsed:.1f}s exceeds 60s"
    _report(f"4 prompt round trip ({checked} prompts, zero failures, "
            f"{elapsed:.1f} s)")


def test_acceptance_5_ideal_mask_editor():
    rng = np.random.default_rng(5)
    t = np.arange(80000) / RATE

    def complex_tone(freqs, amps):
        out = np.zeros(len(t))
        for f, a in zip(freqs, amps):
            out += a * np.sin(2 * np.pi * f * t + rng.uniform(0, 2 * np.pi))
        return Clip(out, RATE)

    sources = [
        complex_tone([250, 500, 750], [0.3, 0.2, 0.1]),      # speech-like
        complex_tone([1187.5, 1375, 1562.5], [0.25, 0.2, 0.12]),
        complex_tone([2500], [0.3]),                          # lone tones
        complex_tone([4093.75], [0.25]),
    ]
    comp = Composition(2, 2)
    x = mix(sources)
    single_and_volume = {
        Task.TSE, Task.TSR, Task.TS_UP, Task.TS_DOWN, Task.TAE, Task.TAR,
        Task.TA_UP, Task.TA_DOWN, Task.S_UP, Task.S_DOWN, Task.OVC, Task.MVC,
    }
    positive = 0
    cases = 0
    for task in defined_tasks(comp):
        for vec in enumerate_edits(task, comp):
            y = oracle_edit(sources, vec)
            mask = ideal_mask(x, y, MaskKind.PSM)
            est = mask_edit(x, mask)
            quality = snr(est, y).value
            if task in single_and_volume:
                assert quality >= 40.0, \
                    f"5: {task.value} {vec} only reaches {quality:.1f} dB"
            improvement = snri(x, est, y).value
            cases += 1
            positive += improvement > 0
    assert positive == cases, f"5: only {positive}/{cases} improved"
    _report(f"5 ideal-mask editor (>=40 dB on target/volume tasks, "
            f"SNRi>0 in {positive}/{cases} cases)")


def test_acceptance_6_film_network_correctness():
    # gradients: full-parameter central finite differences at h=1e-4;
    # seeds pinned so no pre-activation sits within a kink of the probe
    config = MaskNetConfig(channels=8, kernel=16, blocks=2, embed_dim=8)
    net = FilmMaskNet.init(config, seed=3)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(1600) * 0.3
    z = rng.standard_normal(8)
    z /= np.linalg.norm(z)
    y = 0.5 * x + 0.05 * rng.standard_normal(1600)
    h = 1e-4
    _, grads = snr_loss_and_grad(net, x, z, y)
    worst = 0.0
    count = 0
    for key in sorted(net.params) + ["z"]:
        target = z if key == "z" else net.params[key]
        flat = target.reshape(-1)
        gflat = grads[key].reshape(-1)
        for i in range(len(flat)):
            orig = flat[i]
            flat[i] = orig + h
            lp, _ = snr_loss_and_grad(net, x, z, y)
            flat[i] = orig - h
            lm, _ = snr_loss_and_grad(net, x, z, y)
            flat[i] = orig
            fd = (lp - lm) / (2 * h)
            rel = abs(fd - gflat[i]) / max(abs(fd), abs(gflat[i]), 1e-8)
            worst = max(worst, rel)
            count += 1
    assert worst <= 1e-3, f"6: worst gradient error {worst:.2e}"

    # time-broadcast invariance holds exactly: each block's output is its
    # dilated conv over gamma * h_in + beta, zero outside the clip
    cache = net.forward(x, z)
    for i, blk in enumerate(cache["blocks"]):
        assert blk["gamma"].shape == (8,) and blk["beta"].shape == (8,)
        h_tilde = blk["gamma"][:, None] * blk["h_in"] + blk["beta"][:, None]
        d, n = 2 ** i, h_tilde.shape[1]
        framed = np.pad(h_tilde, ((0, 0), (d, d)))
        w = net.params[f"block{i}.conv.w"]
        pre = net.params[f"block{i}.conv.b"][:, None] + sum(
            w[:, :, j] @ framed[:, j * d:j * d + n] for j in range(3))
        assert np.array_equal(blk["h_out"], np.maximum(pre, 0.0)), (
            "6: FiLM broadcast is not time-invariant")

    # single-example overfit: pinned budget of 2000 decayed-lr steps
    t_axis = np.arange(4000) / RATE
    s1 = 0.4 * np.sin(2 * np.pi * 440 * t_axis + 0.31)
    s2 = 0.3 * np.sin(2 * np.pi * 1320 * t_axis + 2.17)
    x_tone = s1 + s2
    y_tone = 2.0 * s1  # up one tone, drop the other
    overfit_cfg = MaskNetConfig(channels=16, kernel=16, blocks=2, embed_dim=16)
    z_tone = np.random.default_rng(5).standard_normal(16)
    z_tone /= np.linalg.norm(z_tone)
    result = train_toy(
        FilmMaskNet.init(overfit_cfg, seed=0),
        [TrainExample(x_tone, z_tone, y_tone)],
        steps=2000, lr=1e-2, lr_decay=0.997,
    )
    out, _ = result.net.edit(Clip(x_tone, RATE), z_tone)
    reached = snr(out.samples, y_tone).value
    assert reached > 20.0, f"6: overfit only reached {reached:.1f} dB"
    _report(f"6 FiLM network ({count} gradients within 1e-3, broadcast "
            f"exact, overfit {reached:.1f} dB)")


def test_acceptance_7_metric_suite():
    rng = np.random.default_rng(7)
    est = rng.standard_normal(8000)
    ref = rng.standard_normal(8000)
    base = si_sdr(est, ref).value
    for scale in (0.25, 3.0, 17.5):
        assert abs(si_sdr(scale * est, ref).value - base) < 1e-9, \
            "7: SI-SDR scale dependence"

    def plain_snr(e, r):
        return 10 * math.log10(float(np.sum(r * r)) /
                               float(np.sum((r - e) ** 2)))

    for case in range(100):
        case_rng = np.random.default_rng(1000 + case)
        n = case_rng.integers(2, 5)
        refs = [case_rng.standard_normal(400) for _ in range(n)]
        ests = [r + 0.5 * case_rng.standard_normal(400) for r in refs]
        case_rng.shuffle(ests)
        perm, mean = pit_snr(ests, refs)
        best = max(
            itertools.permutations(range(n)),
            key=lambda p: sum(plain_snr(ests[p[i]], refs[i])
                              for i in range(n)),
        )
        assert perm == best, "7: permutation differs from exhaustive search"
        expected = sum(plain_snr(ests[best[i]], refs[i]) for i in range(n)) / n
        assert abs(mean.value - expected) < 1e-9, "7: PIT mean differs"

    refs = [rng.standard_normal(500) for _ in range(3)]
    ests = [r + 0.4 * rng.standard_normal(500) for r in refs]
    est_mix, ref_mix = sum(ests), sum(refs)
    base_loss = edit_loss(ests, refs, est_mix, ref_mix)
    for perm in itertools.permutations(range(3)):
        shuffled = [refs[i] for i in perm]
        assert abs(edit_loss(ests, shuffled, est_mix, ref_mix)
                   - base_loss) < 1e-9, "7: combined loss not PIT-invariant"
    _report("7 metric suite (SI-SDR invariance, PIT vs exhaustive, "
            "loss permutation-invariance)")


def test_acceptance_8_pipeline_determinism(tmp_path):
    started = time.perf_counter()
    root = tmp_path / "catalog"
    build_demo_catalog(root, seed=0)
    catalog = ingest(root)
    splits = partition(catalog, seed=0)

    import hashlib

    def tree_digest(out):
        digest = hashlib.blake2b(digest_size=16)
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
        return digest.hexdigest()

    digests = []
    for workers, name in ((1, "w1"), (8, "w8")):
        records = generate_manifest(catalog, splits, count=100,
                                    comp=Composition(2, 2), seed=77)
        out = tmp_path / name
        summary = synthesize(records, out, workers=workers)
        assert summary.ok, f"8: synthesis failures with {workers} workers"
        digests.append(tree_digest(out))
    assert digests[0] == digests[1], "8: trees differ across worker counts"
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"8: runtime {elapsed:.1f}s exceeds 60s"
    _report(f"8 pipeline determinism (100 records, workers 1 vs 8 "
            f"bit-identical, {elapsed:.1f} s)")
