import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from quasicheck.vecmath import as_vec, pnorm_batch

finite_floats = st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False)
vectors = st.lists(finite_floats, min_size=1, max_size=6).map(np.array)


def paired(draw_dim=st.integers(1, 6)):
    return draw_dim.flatmap(
        lambda n: st.tuples(
            st.lists(finite_floats, min_size=n, max_size=n).map(np.array),
            st.lists(finite_floats, min_size=n, max_size=n).map(np.array),
        )
    )


def norm(a, p):
    return float(pnorm_batch(np.asarray(a, dtype=float)[None], p)[0])


def test_as_vec_validation():
    assert as_vec([1, 2]).dtype == float
    for bad in ([1, math.nan], [math.inf], [], [[1.0, 2.0]]):
        with pytest.raises(ValueError):
            as_vec(bad)


def test_pnorm_examples():
    assert norm([3, 4], 2) == 5
    assert norm([3, 4], 1) == 7
    assert norm([3, -4], "inf") == 4
    assert norm([3, -4], math.inf) == 4


def test_pnorm_bad_selector():
    with pytest.raises(ValueError):
        pnorm_batch(np.array([[1.0]]), 3)


@given(paired())
def test_pnorm_triangle_inequality(xy):
    a, b = xy
    for p in (1, 2, "inf"):
        assert norm(a + b, p) <= norm(a, p) + norm(b, p) + 1e-12 * (
            1 + norm(a, p) + norm(b, p))


@given(vectors)
@example(np.zeros(4))
@example(np.array([0.0, 0.0, 1e-300]))   # its square underflows
@example(np.array([5e-324]))
def test_pnorm_zero_iff_zero(a):
    for p in (1, 2, "inf"):
        assert (norm(a, p) == 0) == (not np.any(a))


def test_pnorm_batch_large_entries():
    # squares overflow (numpy warns about that), the norm does not
    with np.errstate(over="ignore"):
        assert norm([3e200, 4e200], 2) == pytest.approx(5e200, rel=1e-15)


def test_pnorm_batch_matches_scalar(rng):
    # closed-form per-row oracle in plain Python floats
    A = rng.normal(size=(20, 3))
    for p, scalar in ((1, lambda r: math.fsum(abs(t) for t in r)),
                      (2, lambda r: math.sqrt(math.fsum(t * t for t in r))),
                      ("inf", lambda r: max(abs(t) for t in r))):
        batch = pnorm_batch(A, p)
        for i, row in enumerate(A.tolist()):
            assert batch[i] == pytest.approx(scalar(row), rel=1e-15)
        # any leading shape: rows of a 3-D batch match the 2-D result
        assert np.array_equal(pnorm_batch(A.reshape(4, 5, 3), p),
                              batch.reshape(4, 5))
