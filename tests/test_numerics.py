import math

import numpy as np
import pytest

from contda.errors import DimensionError, NumericError
from contda.numerics import log_softmax_rows, require_finite

NTRIES = 200


def test_require_finite_rejects_nan_and_inf():
    with pytest.raises(NumericError):
        require_finite(np.array([1.0, np.nan]), "x")
    with pytest.raises(NumericError):
        require_finite(np.array([np.inf]), "x")


def _log_softmax_direct(logits):
    # independent route: exact exponentials at shifted logits
    shifted = logits - logits.max()
    return shifted - math.log(math.fsum(math.exp(v) for v in shifted))


def test_log_softmax_matches_direct_formula():
    rng = np.random.default_rng(13)
    for _ in range(NTRIES):
        logits = rng.standard_normal(rng.integers(1, 12)) * rng.uniform(0.1, 30)
        got = log_softmax_rows(logits[None, :])[0]
        want = _log_softmax_direct(logits)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_log_softmax_shift_invariant_and_normalized():
    rng = np.random.default_rng(17)
    for _ in range(NTRIES):
        logits = rng.standard_normal((3, 6))
        shift = rng.uniform(-1e6, 1e6, size=(3, 1))
        np.testing.assert_allclose(log_softmax_rows(logits + shift),
                                   log_softmax_rows(logits), atol=1e-9)
        for row in np.exp(log_softmax_rows(logits)):
            assert abs(math.fsum(row) - 1.0) < 1e-12


def test_log_softmax_survives_extreme_logits():
    out = log_softmax_rows(np.array([[1e4, 0.0, -1e4], [-1e4, -1e4, 1e4]]))
    assert np.all(np.isfinite(out))
    assert abs(out[0, 0]) < 1e-12
    assert abs(out[1, 2]) < 1e-12


def test_log_softmax_empty_raises():
    with pytest.raises(DimensionError):
        log_softmax_rows(np.zeros((2, 0)))
    with pytest.raises(DimensionError):
        log_softmax_rows(np.zeros(3))


def test_log_softmax_rows_matches_per_row():
    rng = np.random.default_rng(19)
    M = rng.standard_normal((8, 5)) * 10
    rows = log_softmax_rows(M)
    for i in range(8):
        np.testing.assert_allclose(rows[i], _log_softmax_direct(M[i]), atol=1e-12)
