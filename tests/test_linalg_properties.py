"""Property tests for the eigen kernel at its edge cases: near-degenerate
spectra, extreme scales, and the verification threshold's eigenvalue gap."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metriq.errors import DegenerateMetricError, NotHermitianError
from metriq.hilbert import validate_metric
from metriq.linalg import _HERM_TOL, hermitian_eig
from metriq.rng import RngStream
from metriq.tomography import threshold


@st.composite
def _near_degenerate_hermitian(draw):
    """U diag(lam) U^dagger with clusters of eigenvalues 1e-14 to 1e-8 apart."""
    n = draw(st.sampled_from([2, 3, 9]))
    u = RngStream(seed=draw(st.integers(0, 2**32))).haar_unitary(n)
    scale = 10.0 ** draw(st.floats(-6.0, 6.0))
    levels = np.array([draw(st.floats(-1.0, 1.0)) for _ in range(n)])
    # pull every eigenvalue to within a tiny gap of one of two cluster centres
    centres = np.where(levels < 0.0, draw(st.floats(-1.0, 0.0)), draw(st.floats(0.0, 1.0)))
    gap = 10.0 ** draw(st.floats(-14.0, -8.0))
    lam = centres + gap * levels
    mat = (u * (scale * lam)) @ u.conj().T
    return (mat + mat.conj().T) / 2


@settings(max_examples=300, deadline=None)
@given(_near_degenerate_hermitian())
def test_hermitian_eig_property(mat):
    n = mat.shape[0]
    es = hermitian_eig(mat)
    lam, v = es.eigenvalues, es.eigenvectors
    bound = 1e-12 * max(1.0, np.linalg.norm(mat, 2))
    assert np.linalg.norm(mat @ v - v * lam, 2) <= bound
    assert np.abs(v.conj().T @ v - np.eye(n)).max() <= 1e-12
    assert np.all(np.diff(lam) >= 0.0)
    assert np.abs(lam - np.linalg.eigvalsh(mat)).max() <= bound
    for k in range(n):
        col = v[:, k]
        lead = col[np.flatnonzero(np.abs(col) > 1e-12)[0]]
        assert lead.real > 0 and abs(lead.imag) <= 1e-15



def test_hermiticity_gate_survives_entries_near_the_float_maximum():
    # ||M||_op is about 2e308, which overflows; the gate must not pass M for it
    with pytest.raises(NotHermitianError):
        hermitian_eig([[1e308, 1e308], [1.00001e308, 1e308]])


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from([2, 3, 9]), st.floats(0.0, 308.2))
@example(seed=838, n=2, log_scale=308.125)
@example(seed=70, n=2, log_scale=308.0)
def test_hermiticity_gate_is_relative_up_to_the_float_maximum(seed, n, log_scale):
    # with the largest entry 10^log_scale >= 1, ||M||_op lies in [1, n] times
    # it, so a defect of 1e-6 times the largest entry fails and 1e-12 passes
    g = RngStream(seed=seed).normals(2 * n * n).view(complex).reshape(n, n)
    # normalize before scaling: 10^log_scale / max overflows when max < 1
    herm = (g + g.conj().T) / 2
    herm /= np.abs(herm).max()
    herm *= 10.0**log_scale
    skew = (g - g.conj().T) / 2
    skew /= np.abs(skew).max()
    skew *= 10.0**log_scale
    with pytest.raises(NotHermitianError):
        hermitian_eig(herm + 1e-6 * skew)
    hermitian_eig(herm + 1e-12 * skew)

def _gate_rejects_reference(m):
    """hermitian_eig's Hermiticity gate as first written, with both SVD norms on every call."""
    shrink = 0.5 ** m.shape[0].bit_length()
    small = m * shrink
    defect = float(np.linalg.norm(small - small.conj().T, 2))
    return defect > _HERM_TOL * shrink and defect > _HERM_TOL * max(shrink, float(np.linalg.norm(small, 2)))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from([1, 2, 3, 9]), st.floats(-13.0, -8.0), st.floats(-6.0, 6.0))
@example(seed=1, n=2, log_defect=-10.0, log_scale=0.0)
@example(seed=2, n=3, log_defect=-10.0 - 1e-9, log_scale=3.0)
@example(seed=3, n=2, log_defect=-10.30103, log_scale=-1e-9)
def test_hermiticity_gate_matches_the_two_norm_rule(seed, n, log_defect, log_scale):
    # M = scale (H + defect S) with ||H||_op = ||S||_op = 1 straddles the 1e-10
    # gate, relative above scale 1 and absolute below; the cheap pass never
    # changes a verdict
    g = RngStream(seed=seed).normals(2 * n * n).view(complex).reshape(n, n)
    herm = (g + g.conj().T) / 2
    herm /= np.linalg.norm(herm, 2)
    skew = (g - g.conj().T) / 2
    skew /= np.linalg.norm(skew, 2)
    m = 10.0**log_scale * (herm + 10.0**log_defect * skew)
    if _gate_rejects_reference(m):
        with pytest.raises(NotHermitianError):
            hermitian_eig(m)
    else:
        hermitian_eig(m)


def _qubit_metric(seed, low, gap):
    u = RngStream(seed=seed).haar_unitary(2)
    mat = (u * np.array([low, low + gap])) @ u.conj().T
    return validate_metric((mat + mat.conj().T) / 2)


# the computed gap carries roundoff of about 1e-16, 1e-6 of the cutoff, so
# gaps come within 1e-4 of it and no closer
_NEAR_CUTOFF = st.floats(-4.0, -0.3)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32), st.floats(0.1, 0.9), _NEAR_CUTOFF)
def test_threshold_rejects_gaps_below_cutoff(seed, low, exponent):
    with pytest.raises(DegenerateMetricError):
        threshold(_qubit_metric(seed, low, 1e-10 * (1.0 - 10.0**exponent)))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32), st.floats(0.1, 0.9), _NEAR_CUTOFF)
def test_threshold_above_cutoff_is_a_third_of_the_gap(seed, low, exponent):
    gap = 1e-10 * (1.0 + 10.0**exponent)
    th = threshold(_qubit_metric(seed, low, gap))
    assert np.isfinite(th)
    assert abs(th - gap / 3.0) <= 1e-15
