"""Evaluation math: SNR, SNR improvement, SI-SDR, and permutation-invariant SNR.

All values are decibels. Ratios beyond +-300 dB are clamped and flagged
non-finite so aggregate statistics (means, quantiles) stay well-defined.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dsp import as_samples
from .errors import MixeditError

EPS = 1e-30
CLAMP_DB = 300.0


class ZeroReference(MixeditError):
    pass


class ZeroEstimate(MixeditError):
    pass


class CountMismatch(MixeditError):
    pass


@dataclass(frozen=True)
class MetricValue:
    """A dB value plus a flag marking clamped (effectively infinite) ratios."""

    value: float
    finite: bool = True

    def __float__(self) -> float:
        return self.value


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """The sum of ``a * b`` in one reduction, with no product array:
    numpy's own loop, so the result does not depend on the BLAS thread
    count as ``np.dot``'s does."""
    return float(np.einsum("i,i->", a.ravel(), b.ravel()))


def _snr_error(est, ref) -> tuple[MetricValue, np.ndarray, float]:
    """``snr``'s value, the error ``ref - est`` it measured and that
    error's energy, for a caller that needs the error too (FiLM's loss
    gradient) and so forms and sums it only once."""
    est, ref = as_samples(est), as_samples(ref)
    if est.shape != ref.shape:
        raise CountMismatch(f"length mismatch: {est.shape} vs {ref.shape}")
    ref_e = _dot(ref, ref)
    if ref_e == 0.0:
        raise ZeroReference("reference signal is all zero")
    err = ref - est
    err_e = _dot(err, err)
    if err_e < EPS * ref_e:
        return MetricValue(CLAMP_DB, finite=False), err, err_e
    return MetricValue(10.0 * math.log10(ref_e / err_e)), err, err_e


def snr(est, ref) -> MetricValue:
    """10*log10(||ref||^2 / ||ref - est||^2), clamped at +300 dB.

    Each energy is one fused reduction (``_dot``); the error stays a
    subtraction, so that a near-perfect estimate's error energy carries
    no cancellation into the clamp test."""
    return _snr_error(est, ref)[0]


def snri(mixture, est, ref) -> MetricValue:
    """SNR improvement of an estimate over the unprocessed mixture."""
    after = snr(est, ref)
    before = snr(mixture, ref)
    return MetricValue(after.value - before.value,
                       finite=after.finite and before.finite)


def si_sdr(est, ref) -> MetricValue:
    """Scale-invariant signal-to-distortion ratio.

    Both signals are mean-removed, the estimate is projected onto the
    reference, and the projection-to-residual ratio is reported with a
    symmetric +-300 dB clamp. Each energy and the projection are one
    fused reduction (``_dot``), and the residual is a subtraction.
    """
    est, ref = as_samples(est), as_samples(ref)
    if est.shape != ref.shape:
        raise CountMismatch(f"length mismatch: {est.shape} vs {ref.shape}")
    est = est - est.mean()
    ref = ref - ref.mean()
    ref_e = _dot(ref, ref)
    est_e = _dot(est, est)
    if ref_e == 0.0:
        raise ZeroReference("reference signal is zero after mean removal")
    if est_e == 0.0:
        raise ZeroEstimate("estimate is zero after mean removal")
    target = (_dot(est, ref) / ref_e) * ref
    target_e = _dot(target, target)
    resid = np.subtract(est, target, out=est)
    resid_e = _dot(resid, resid)
    if resid_e < EPS * target_e:
        return MetricValue(CLAMP_DB, finite=False)
    if target_e < EPS * resid_e:
        return MetricValue(-CLAMP_DB, finite=False)
    return MetricValue(10.0 * math.log10(target_e / resid_e))


def pit_snr(est_sources, ref_sources) -> tuple[tuple[int, ...], MetricValue]:
    """Best source-to-reference assignment over all permutations.

    Returns (perm, mean dB) where est_sources[perm[i]] is matched with
    ref_sources[i] and perm maximizes the mean per-source SNR. Brute
    force over N! permutations, N <= 8.
    """
    ests = [as_samples(e) for e in est_sources]
    refs = [as_samples(r) for r in ref_sources]
    if len(ests) != len(refs):
        raise CountMismatch(f"{len(ests)} estimates vs {len(refs)} references")
    n = len(refs)
    if n == 0:
        raise CountMismatch("no sources given")
    if n > 8:
        raise CountMismatch("permutation search is limited to 8 sources")
    # Pairwise table first; n! lookups afterwards. ``_snr_error``, not the
    # traced ``snr``, so that ``train_toy``'s pool threads may call this.
    table = [[_snr_error(ests[j], refs[i])[0] for j in range(n)]
             for i in range(n)]
    best_perm = None
    best_mean = -math.inf
    best_finite = True
    for perm in itertools.permutations(range(n)):
        mean = sum(table[i][perm[i]].value for i in range(n)) / n
        if mean > best_mean:
            best_perm = perm
            best_mean = mean
            best_finite = all(table[i][perm[i]].finite for i in range(n))
    return best_perm, MetricValue(best_mean, finite=best_finite)


def edit_loss(est_sources, ref_sources, est_mix, ref_mix) -> float:
    """Combined training objective: negative permutation-invariant mean
    source SNR plus negative mixture SNR. Invariant to the ordering of
    the reference sources."""
    _, per_source = pit_snr(est_sources, ref_sources)
    return -per_source.value - snr(est_mix, ref_mix).value
