import numpy as np
import pytest

from helpers import check_finite_differences, named_tensors
from tripletag import numerics as nm
from tripletag.attention import AttnParams, attend
from tripletag.numerics import Tensor


class TestAttend:
    def test_single_token_passes_value_through(self):
        rng = np.random.default_rng(0)
        p = AttnParams.init(rng, 4)
        H = rng.uniform(-1, 1, (1, 4))
        out = attend(Tensor(H), p)
        np.testing.assert_allclose(out.data, H @ p.W_V.data, atol=1e-14)

    def test_identical_rows_average_values(self):
        rng = np.random.default_rng(1)
        p = AttnParams.init(rng, 3)
        base = rng.uniform(-1, 1, (1, 3))
        H = np.vstack([base, base])
        out = attend(Tensor(H), p)
        avg = 0.5 * (H[0] + H[1]) @ p.W_V.data
        np.testing.assert_allclose(out.data[0], avg, atol=1e-12)
        np.testing.assert_allclose(out.data[1], avg, atol=1e-12)
        # rows with identical keys but different values weigh 0.5 each: with
        # W_K's last row zero, rows that differ only in the last coordinate
        p.W_K.data[-1] = 0.0
        H[1, -1] += 1.0
        avg = 0.5 * (H[0] + H[1]) @ p.W_V.data
        np.testing.assert_allclose(attend(Tensor(H), p).data, np.vstack([avg, avg]),
                                   atol=1e-12)

    def test_rows_sum_to_one(self):
        # with W_V = I each output row is the weights times H: a constant
        # column comes out unchanged only if every weight row sums to one,
        # and each column stays within its range over H when no weight leaves
        # [0, 1]
        rng = np.random.default_rng(3)
        p = AttnParams.init(rng, 5)
        p.W_V.data[:] = np.eye(5)
        H = rng.uniform(-3, 3, (6, 5))
        H[:, 2] = 0.7
        out = attend(Tensor(H), p).data
        np.testing.assert_allclose(out[:, 2], np.full(6, 0.7), atol=1e-12)
        assert np.all((out >= H.min(axis=0) - 1e-12) & (out <= H.max(axis=0) + 1e-12))

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(4)
        p = AttnParams.init(rng, 4)
        H = rng.uniform(-1, 1, (5, 4))
        perm = rng.permutation(5)
        out = attend(Tensor(H), p).data
        out_perm = attend(Tensor(H[perm]), p).data
        np.testing.assert_allclose(out_perm, out[perm], atol=1e-12)

    def test_empty_input_rejected(self):
        p = AttnParams.init(np.random.default_rng(5), 4)
        with pytest.raises(nm.DimensionError):
            attend(Tensor(np.zeros((0, 4)).reshape(0, 4)), p)

    def test_default_dk_equals_input_dim(self):
        p = AttnParams.init(np.random.default_rng(6), 7)
        assert p.d_k == 7
        assert p.W_V.shape == (7, 7)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    p = AttnParams.init(rng, 3)
    H = Tensor(rng.uniform(-1, 1, (4, 3)), requires_grad=True)
    mask = np.sin(np.arange(12)).reshape(4, 3)
    check_finite_differences(lambda: attend(H, p), [("H", H)] + named_tensors(p), mask)
