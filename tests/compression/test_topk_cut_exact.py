"""The integer-key cut of ``_topk_indices`` against the float-key one it replaced.

The threshold branch now finds the k-th largest magnitude by partitioning the
``uint32`` view of ``|u|`` instead of the floats. ``ref_topk_indices`` below is
the function as it stood before that change, frozen; the live one must return
byte-equal indices (and ``TopK`` byte-equal values) on every input, ties and
non-finite values included. The reference is the spec: do not "modernise" it.
"""

import numpy as np
import pytest

from repro.compression.sparsifiers import TopK, _topk_indices, k_from_ratio


def ref_topk_indices(update, k):
    d = update.shape[0]
    if k >= d:
        return np.arange(d, dtype=np.int64)
    if 10 * k > d:
        mag = np.abs(update)
        mag.partition(d - k)
        top = mag[d - k :]
        cut = top[0]
        idx = np.flatnonzero((update >= cut) | (update <= -cut))
        if idx.size == k and not np.isnan(top.max()):
            return idx.astype(np.int64, copy=False)
    idx = np.argpartition(np.abs(update), d - k)[d - k :]
    return np.sort(idx).astype(np.int64, copy=False)


DIMS = [1, 7, 33_610, 200_000]
RATIOS = [0.11, 0.25, 0.5, 0.9, 1.0]
DRAWS = ["normal", "student-t3", "half-zero", "all-equal", "plus-minus"]


def draw(kind, rng, d):
    if kind == "normal":
        u = rng.normal(size=d)
    elif kind == "student-t3":
        u = rng.standard_t(3, size=d)
    elif kind == "half-zero":  # an error-feedback residual after one round
        u = np.where(rng.random(d) < 0.5, 0.0, rng.normal(size=d))
    elif kind == "all-equal":
        u = np.full(d, -2.0)
    else:
        u = np.where(rng.random(d) < 0.5, 1.5, -1.5)
    return u.astype(np.float32)


def assert_same_selection(update, ratio):
    """Live == frozen for the index function and for what ``TopK`` emits."""
    d = update.shape[0]
    k = k_from_ratio(d, ratio)
    before = update.tobytes()
    with np.errstate(invalid="ignore"):
        ref = ref_topk_indices(update, k)
        got = _topk_indices(update, k)
        emitted = TopK().compress(update, ratio)
    assert update.tobytes() == before  # the select works on a copy
    assert got.dtype == ref.dtype == np.int64
    assert got.tobytes() == ref.tobytes()
    assert emitted.indices.tobytes() == ref.tobytes()
    assert emitted.values.dtype == np.float32
    assert emitted.values.tobytes() == update[ref].tobytes()


@pytest.mark.parametrize("kind", DRAWS)
@pytest.mark.parametrize("ratio", RATIOS)
@pytest.mark.parametrize("d", DIMS)
def test_grid(d, ratio, kind):
    rng = np.random.default_rng([d, int(ratio * 100), DRAWS.index(kind)])
    assert_same_selection(draw(kind, rng, d), ratio)


def nan32(payload, negative=False):
    """A float32 NaN with the given mantissa payload and sign."""
    bits = 0x7F800000 | payload | (0x80000000 if negative else 0)
    return np.array([bits], dtype=np.uint32).view(np.float32)[0]


SPECIALS = np.array(
    [
        np.inf,
        -np.inf,
        -0.0,
        0.0,
        1e-45,  # smallest subnormal
        -1e-45,
        1.1754942e-38,  # largest subnormal
        -1.1754942e-38,
        1.17549435e-38,  # smallest normal
        nan32(0x400000),  # quiet NaN
        nan32(0x400000, negative=True),
        nan32(0x000001),  # signalling NaN, lowest payload
        nan32(0x3FFFFF, negative=True),
        nan32(0x7FFFFF),  # highest payload
    ],
    dtype=np.float32,
)


class TestSpecialValues:
    @pytest.mark.parametrize("ratio", [0.11, 0.2, 0.5, 0.9, 0.99])
    @pytest.mark.parametrize("background", ["normal", "subnormal", "zeros"])
    def test_scattered_specials(self, background, ratio):
        d = 2000
        rng = np.random.default_rng([int(ratio * 100), len(background)])
        update = {
            "normal": rng.normal(size=d),
            "subnormal": rng.normal(size=d) * 1e-41,
            "zeros": np.zeros(d),
        }[background].astype(np.float32)
        where = rng.choice(d, 10 * SPECIALS.size, replace=False)
        update[where] = np.tile(SPECIALS, 10)
        assert_same_selection(update, ratio)

    @pytest.mark.parametrize("d", [2000, 150, 40])
    def test_ten_nans_and_twenty_infs_at_k_20(self, d):
        """PR 13's case: the cut is inf and exactly twenty magnitudes reach it,
        yet the ten NaNs outrank ten of them — a count check alone passes the
        wrong set. d = 2000 is the original (index-sort branch since the
        tenth-density rule); 150 and 40 put it on the threshold branch, where
        only the top block's NaN guard catches it."""
        rng = np.random.default_rng(7)
        update = rng.normal(size=d).astype(np.float32)
        update[rng.choice(d, 40, replace=False)] = np.tile(
            np.array([np.nan, np.inf, -np.inf, -0.0], dtype=np.float32), 10
        )
        assert k_from_ratio(d, 20 / d) == 20
        assert_same_selection(update, 20 / d)
        kept = TopK().compress(update, 20 / d)
        assert np.isnan(kept.values).sum() == 10

    @pytest.mark.parametrize("n_nan", [1, 19, 20, 21, 100])
    def test_nans_around_k(self, n_nan):
        """Fewer, exactly, and more NaNs than k = 20 slots, both signs."""
        d = 100
        rng = np.random.default_rng(n_nan)
        update = rng.normal(size=d).astype(np.float32)
        update[rng.choice(d, n_nan, replace=False)] = np.resize(
            [nan32(0x400000), nan32(0x000123, negative=True)], n_nan
        )
        assert_same_selection(update, 0.2)

    def test_subnormals_order_like_their_bits(self):
        """The cut falls between two subnormals one ulp apart."""
        update = np.arange(1, 41, dtype=np.uint32).view(np.float32).copy()
        update[::2] *= -1
        for ratio in (0.25, 0.5, 0.75):
            assert_same_selection(update, ratio)
            kept = TopK().compress(update, ratio)
            assert kept.indices.tolist() == list(range(40 - kept.nnz, 40))

    def test_signed_zero_is_a_tie_not_an_order(self):
        """−0.0 and +0.0 share one key: with every entry a zero the selection
        is the fallback's, whatever the signs."""
        update = np.zeros(64, dtype=np.float32)
        update[::3] = -0.0
        assert_same_selection(update, 0.5)
