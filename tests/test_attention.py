import numpy as np
import pytest

from helpers import relative_error
from tripletag import numerics as nm
from tripletag.attention import AttnParams, attend, attention_weights
from tripletag.numerics import Tensor


def summation_form(H, p):
    """Per-element reference: h*_i = sum_j softmax_j(q_i . k_j / sqrt(d_k)) v_j."""
    Q = H @ p.W_Q.data
    K = H @ p.W_K.data
    V = H @ p.W_V.data
    n = H.shape[0]
    out = np.zeros((n, V.shape[1]))
    for i in range(n):
        scores = np.array([float(Q[i] @ K[j]) / np.sqrt(p.d_k)
                           for j in range(n)])
        e = np.exp(scores - scores.max())
        weights = e / e.sum()
        for j in range(n):
            out[i] += weights[j] * V[j]
    return out


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
        A = attention_weights(Tensor(H), p)
        np.testing.assert_allclose(A.data, np.full((2, 2), 0.5), atol=1e-12)
        out = attend(Tensor(H), p)
        avg = 0.5 * (H[0] + H[1]) @ p.W_V.data
        np.testing.assert_allclose(out.data[0], avg, atol=1e-12)
        np.testing.assert_allclose(out.data[1], avg, atol=1e-12)

    def test_matrix_form_equals_summation_form(self):
        rng = np.random.default_rng(2)
        p = AttnParams.init(rng, 6)
        H = rng.uniform(-2, 2, (5, 6))
        np.testing.assert_allclose(attend(Tensor(H), p).data,
                                   summation_form(H, p), atol=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_equivalence_over_random_inputs(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(1, 8))
        p = AttnParams.init(rng, 4)
        H = rng.uniform(-2, 2, (n, 4))
        np.testing.assert_allclose(attend(Tensor(H), p).data,
                                   summation_form(H, p), atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        p = AttnParams.init(rng, 5)
        A = attention_weights(Tensor(rng.uniform(-3, 3, (6, 5))), p).data
        np.testing.assert_allclose(A.sum(axis=1), np.ones(6), atol=1e-9)
        assert np.all((A >= 0) & (A <= 1))

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
    H = rng.uniform(-1, 1, (4, 3))
    mask = np.sin(np.arange(12)).reshape(4, 3)

    def loss():
        return float((attend(Tensor(H), p).data * mask).sum())

    nm.backward(nm.sum_all(nm.mul(attend(Tensor(H), p), Tensor(mask))))
    for name, theta in (("W_Q", p.W_Q), ("W_K", p.W_K), ("W_V", p.W_V)):
        fd = nm.finite_diff_grad(loss, theta, h=1e-5)
        assert relative_error(theta.grad, fd) < 1e-4, name
