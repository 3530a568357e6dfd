"""Metric suite: SNR, SNRi, SI-SDR, permutation-invariant SNR."""

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mixedit import metrics
from mixedit.metrics import (
    CountMismatch,
    MetricValue,
    ZeroEstimate,
    ZeroReference,
    edit_loss,
    pit_snr,
    si_sdr,
    snr,
    snri,
)


def noise(n=4000, seed=0):
    return np.random.default_rng(seed).standard_normal(n)


def test_snr_perfect_estimate_clamps():
    x = noise()
    v = snr(x, x)
    assert v.value == 300.0
    assert not v.finite


def test_snr_zero_estimate():
    x = noise()
    assert snr(np.zeros_like(x), x).value == pytest.approx(0.0, abs=1e-12)


def test_snr_double_reference():
    x = noise()
    assert snr(x, 2 * x).value == pytest.approx(6.0206, abs=1e-4)


def test_snr_zero_reference():
    with pytest.raises(ZeroReference):
        snr(noise(), np.zeros(4000))


def test_snr_common_scale_invariance():
    est, ref = noise(seed=1), noise(seed=2)
    base = snr(est, ref).value
    assert snr(3.3 * est, 3.3 * ref).value == pytest.approx(base, abs=1e-9)
    # but not invariant to scaling the estimate alone
    assert abs(snr(2.0 * est, ref).value - base) > 0.1


def test_snri():
    ref = noise(seed=3)
    x = ref + 0.3 * noise(seed=4)
    assert snri(x, x, ref).value == pytest.approx(0.0, abs=1e-12)
    v = snri(0.5 * ref, ref, ref)
    assert v.value == pytest.approx(300.0 - snr(0.5 * ref, ref).value, abs=1e-9)
    assert not v.finite


def test_si_sdr_scale_invariance_exact():
    est, ref = noise(seed=5), noise(seed=6)
    a = si_sdr(est, ref).value
    b = si_sdr(2.0 * est, ref).value
    assert a == pytest.approx(b, abs=1e-9)
    assert si_sdr(3.7 * ref, ref).value == 300.0
    assert not si_sdr(3.7 * ref, ref).finite


def test_si_sdr_orthogonal_clamps_low():
    est = np.array([1.0, -1.0, 1.0, -1.0])
    ref = np.array([1.0, 1.0, -1.0, -1.0])
    v = si_sdr(est, ref)
    assert v.value == -300.0
    assert not v.finite


def test_si_sdr_zero_signals():
    x = noise()
    with pytest.raises(ZeroReference):
        si_sdr(x, np.zeros_like(x))
    with pytest.raises(ZeroEstimate):
        si_sdr(np.full_like(x, 2.5), x)  # constant signal: zero after mean removal


def test_pit_recovers_known_shuffle():
    refs = [noise(seed=i) for i in range(3)]
    perm_true = (2, 0, 1)
    ests = [refs[perm_true[i]] for i in range(3)]
    # ests[i] == refs[perm_true[i]]; matching needs perm with est[perm[i]] == ref[i]
    perm, mean = pit_snr(ests, refs)
    assert [perm_true[perm[i]] for i in range(3)] == [0, 1, 2]
    assert mean.value == 300.0
    assert not mean.finite


def test_pit_single_source():
    est, ref = noise(seed=7), noise(seed=8)
    perm, mean = pit_snr([est], [ref])
    assert perm == (0,)
    assert mean.value == pytest.approx(snr(est, ref).value)


def test_pit_matches_independent_search():
    rng = np.random.default_rng(9)
    for trial in range(20):
        refs = [rng.standard_normal(500) for _ in range(4)]
        ests = [r + 0.5 * rng.standard_normal(500) for r in refs]
        rng.shuffle(ests)
        perm, mean = pit_snr(ests, refs)

        def plain_snr(e, r):
            return 10 * math.log10(np.sum(r * r) / np.sum((r - e) ** 2))

        best = max(
            itertools.permutations(range(4)),
            key=lambda p: sum(plain_snr(ests[p[i]], refs[i]) for i in range(4)),
        )
        expected = sum(plain_snr(ests[best[i]], refs[i]) for i in range(4)) / 4
        assert perm == best
        assert mean.value == pytest.approx(expected, abs=1e-9)


def test_pit_beats_identity_assignment():
    rng = np.random.default_rng(10)
    refs = [rng.standard_normal(500) for _ in range(3)]
    ests = [refs[1], refs[2], refs[0]]
    _, mean = pit_snr(ests, refs)
    identity = sum(snr(e, r).value for e, r in zip(ests, refs)) / 3
    assert mean.value >= identity


def test_pit_count_mismatch():
    with pytest.raises(CountMismatch):
        pit_snr([noise()], [noise(), noise()])
    with pytest.raises(CountMismatch):
        pit_snr([noise(100, i) for i in range(9)],
                [noise(100, i + 20) for i in range(9)])


def test_edit_loss_invariant_to_reference_order():
    rng = np.random.default_rng(11)
    refs = [rng.standard_normal(500) for _ in range(3)]
    ests = [r + 0.4 * rng.standard_normal(500) for r in refs]
    mix_est = sum(ests)
    mix_ref = sum(refs)
    base = edit_loss(ests, refs, mix_est, mix_ref)
    for perm in itertools.permutations(range(3)):
        shuffled = [refs[i] for i in perm]
        assert edit_loss(ests, shuffled, mix_est, mix_ref) == pytest.approx(
            base, abs=1e-9
        )


def test_metric_value_floats():
    assert float(MetricValue(12.5)) == 12.5


def _old_snr(est, ref):
    return 10.0 * math.log10(np.sum(ref * ref) / np.sum((ref - est) ** 2))


def _old_si_sdr(est, ref):
    est, ref = est - est.mean(), ref - ref.mean()
    target = (np.dot(est, ref) / np.sum(ref * ref)) * ref
    resid = est - target
    return 10.0 * math.log10(np.sum(target * target) / np.sum(resid * resid))


@pytest.mark.parametrize("n", [1, 7, 4000, 80000, 160003])
def test_fused_sums_agree_with_the_product_sums(n):
    # Each energy is one fused reduction now, summed in another order
    # than np.sum's pairwise one: the dB values move in their last bits.
    for seed in range(4):
        rng = np.random.default_rng(seed)
        ref = rng.standard_normal(n) * rng.uniform(1e-3, 1e3)
        est = ref * rng.uniform(0.5, 1.5) + rng.standard_normal(n) * 0.1
        mix = ref + rng.standard_normal(n)
        assert abs(snr(est, ref).value - _old_snr(est, ref)) < 1e-12
        assert abs(snri(mix, est, ref).value
                   - (_old_snr(est, ref) - _old_snr(mix, ref))) < 1e-12
        if n > 1:
            assert abs(si_sdr(est, ref).value - _old_si_sdr(est, ref)) < 1e-12


_METRICS_UNDER_BLAS = """
import sys
import numpy as np
sys.path.insert(0, sys.argv[1])
from mixedit.metrics import si_sdr, snr, snri
rng = np.random.default_rng(5)
ref = rng.standard_normal(400000)
est = 0.8 * ref + 0.3 * rng.standard_normal(400000)
print(repr([snr(est, ref).value, snri(ref + est, est, ref).value,
            si_sdr(est, ref).value]))
"""


def test_metrics_do_not_depend_on_the_blas_thread_count():
    # numpy is loaded before mixedit, so each BLAS setting holds.
    src = str(Path(metrics.__file__).resolve().parents[1])
    values = []
    for threads in ("1", "2"):
        env = os.environ | dict.fromkeys(
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"),
            threads)
        run = subprocess.run([sys.executable, "-c", _METRICS_UNDER_BLAS, src],
                             env=env, capture_output=True, text=True,
                             timeout=120)
        assert run.returncode == 0, run.stderr
        values.append(run.stdout)
    assert values[0] == values[1]
