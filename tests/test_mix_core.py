"""Mixing-weight math against independently computed oracles.

The worked V=4 example values were frozen from a 50-digit mpmath script;
the conjugacy oracle recomputes the posterior mean as (alpha + c) over
(sum alpha + N) with scipy's entropy, never through the shipped closed
form.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from moi import mix_core
from moi.mix_core import (
    MixConfig,
    MixingWeights,
    feedback_weights,
    normalized_entropy,
    posterior_mix_weights,
)

# frozen oracle values for p = (0.7, 0.2, 0.05, 0.05), V = 4
ORACLE_P = np.array([0.7, 0.2, 0.05, 0.05])
ORACLE_H = 0.6283898247235197
ORACLE_W = np.array([0.905741526291472, 0.06283898247235197, 0.015709745618087993, 0.015709745618087993])

IDS4 = np.arange(4)


def brute_force_posterior(probs: np.ndarray, sampled: int, beta: float, vocab: int) -> np.ndarray:
    """Conjugate update spelled out: normalize (alpha + c), no closed form."""
    p = np.asarray(probs, dtype=np.float64)
    h = min(1.0, max(0.0, float(stats.entropy(p)) / math.log(vocab)))
    alpha = h * p
    counts = np.zeros_like(p)
    counts[sampled] = beta + 1.0 - h
    post = alpha + counts
    return post / (alpha.sum() + counts.sum())


def random_dist(rng, vocab: int) -> np.ndarray:
    return rng.dirichlet(np.ones(vocab))


def one_hot(token: int) -> MixingWeights:
    """All weight on `token`: the conventional (standard) feedback."""
    return MixingWeights(ids=np.array([token]), weights=np.array([1.0]))


class TestNormalizedEntropy:
    def test_uniform_is_maximal(self):
        assert normalized_entropy(np.full(4, 0.25), 4) == pytest.approx(1.0, abs=1e-12)

    def test_one_hot_is_zero(self):
        assert normalized_entropy(np.array([0.0, 0.0, 1.0, 0.0]), 4) == 0.0

    def test_half_support(self):
        # log2 / log4
        assert normalized_entropy(np.array([0.5, 0.5, 0.0, 0.0]), 4) == pytest.approx(0.5, abs=1e-15)

    def test_worked_example(self):
        assert normalized_entropy(ORACLE_P, 4) == pytest.approx(ORACLE_H, abs=1e-15)

    def test_vocab_below_two_rejected(self):
        with pytest.raises(ValueError):
            normalized_entropy(np.array([1.0]), 1)

    def test_normalizer_uses_full_vocab_not_support(self):
        # the same support probs against larger vocab scale by log ratio
        h4 = normalized_entropy(np.array([0.5, 0.5]), 4)
        h16 = normalized_entropy(np.array([0.5, 0.5]), 16)
        assert h16 == pytest.approx(h4 * math.log(4) / math.log(16), abs=1e-12)

    def test_permutation_invariant_and_uniform_max(self):
        rng = np.random.Generator(np.random.PCG64(0))
        for _ in range(50):
            v = int(rng.integers(2, 12))
            p = random_dist(rng, v)
            perm = rng.permutation(v)
            assert normalized_entropy(p[perm], v) == pytest.approx(
                normalized_entropy(p, v), abs=1e-12
            )
            assert normalized_entropy(p, v) <= 1.0

    def test_invalid_probs_rejected(self):
        with pytest.raises(ValueError):
            normalized_entropy(np.array([0.5, 0.6]), 4)
        with pytest.raises(ValueError):
            normalized_entropy(np.array([-0.1, 1.1]), 4)
        with pytest.raises(ValueError):
            normalized_entropy(np.array([np.nan, 1.0]), 4)


class TestPosteriorMixWeights:
    def test_one_hot_collapse(self):
        for beta in (0.25, 1.0, 8.0):
            w = posterior_mix_weights(IDS4, np.array([0.0, 0.0, 0.0, 1.0]), 3, beta, 4)
            np.testing.assert_array_equal(w.to_dense(4), [0.0, 0.0, 0.0, 1.0])

    def test_uniform_case(self):
        w = posterior_mix_weights(IDS4, np.full(4, 0.25), 2, 1.0, 4)
        np.testing.assert_allclose(w.to_dense(4), [0.125, 0.125, 0.625, 0.125], atol=1e-12)

    def test_worked_example(self):
        w = posterior_mix_weights(IDS4, ORACLE_P, 0, 1.0, 4)
        np.testing.assert_allclose(w.to_dense(4), ORACLE_W, atol=1e-15)

    def test_out_of_range_sampled(self):
        with pytest.raises(IndexError):
            posterior_mix_weights(IDS4, ORACLE_P, 4, 1.0, 4)

    @pytest.mark.parametrize(
        "ids, error, match",
        [
            (np.arange(3), ValueError, "ids and probs must be aligned"),
            (np.array([0, 1, 2, 4]), IndexError, "support ids outside vocabulary"),
            (np.array([-1, 1, 2, 3]), IndexError, "support ids outside vocabulary"),
        ],
        ids=["misaligned", "id-above-vocab", "negative-id"],
    )
    def test_bad_support_rejected(self, ids, error, match):
        with pytest.raises(error, match=match):
            posterior_mix_weights(ids, ORACLE_P, 1, 1.0, 4)

    def test_drifted_probs_are_renormalized(self):
        # probs 5e-10 above a sum of 1 pass check_probs; the weights drift
        # past 1e-12 and are divided by their sum
        p = ORACLE_P * (1.0 + 5e-10)
        h = normalized_entropy(p, 4)
        raw = p * (h / 2.0)
        raw[0] += (2.0 - h) / 2.0
        assert abs(raw.sum() - 1.0) > 1e-12
        w = posterior_mix_weights(IDS4, p, 0, 1.0, 4)
        assert w.weights.tobytes() == (raw / raw.sum()).tobytes()

    def test_sampled_outside_support_appended(self):
        ids = np.array([3, 7])
        p = np.array([0.6, 0.4])
        w = posterior_mix_weights(ids, p, 5, 1.0, 16)
        assert w.ids.tolist() == [3, 7, 5]
        assert w.weights.sum() == pytest.approx(1.0, abs=1e-12)
        # the closed form with p_5 = 0, bit for bit
        h = normalized_entropy(p, 16)
        want = np.concatenate([p * (h / 2.0), [(2.0 - h) / 2.0]])
        assert w.weights.tobytes() == want.tobytes()

    def test_conjugacy_oracle(self):
        rng = np.random.Generator(np.random.PCG64(7))
        for _ in range(400):
            v = int(rng.integers(2, 17))
            p = random_dist(rng, v)
            y = int(rng.integers(v))
            beta = float(rng.uniform(0.25, 8.0))
            ours = posterior_mix_weights(np.arange(v), p, y, beta, v).to_dense(v)
            np.testing.assert_allclose(ours, brute_force_posterior(p, y, beta, v), atol=1e-12)

    def test_beta_monotone_and_limit(self):
        rng = np.random.Generator(np.random.PCG64(11))
        betas = [0.01, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 1e6]
        for _ in range(100):
            v = int(rng.integers(2, 12))
            p = random_dist(rng, v)
            y = int(rng.integers(v))
            w_y = [posterior_mix_weights(np.arange(v), p, y, b, v).weight_of(y) for b in betas]
            assert all(a <= b for a, b in zip(w_y, w_y[1:]))
            big = posterior_mix_weights(np.arange(v), p, y, 1e9, v)
            assert abs(big.weight_of(y) - 1.0) <= 2e-9

    def test_permutation_equivariance(self):
        rng = np.random.Generator(np.random.PCG64(13))
        for _ in range(50):
            v = int(rng.integers(2, 10))
            p = random_dist(rng, v)
            y = int(rng.integers(v))
            perm = rng.permutation(v)
            w = posterior_mix_weights(np.arange(v), p, y, 1.5, v).to_dense(v)
            # relabel token i as perm[i]
            inv = np.empty(v, dtype=np.int64)
            inv[perm] = np.arange(v)
            w_perm = posterior_mix_weights(np.arange(v), p[inv], int(perm[y]), 1.5, v).to_dense(v)
            np.testing.assert_allclose(w_perm[perm], w, atol=1e-15)

    @settings(deadline=None, max_examples=60)
    @given(
        raw=st.lists(st.floats(1e-6, 1.0), min_size=2, max_size=16),
        beta=st.floats(0.01, 50.0),
        data=st.data(),
    )
    def test_weights_are_convex_coefficients(self, raw, beta, data):
        p = np.asarray(raw) / np.sum(raw)
        v = p.size
        y = data.draw(st.integers(0, v - 1))
        w = posterior_mix_weights(np.arange(v), p, y, beta, v)
        assert np.all(w.weights >= 0.0)
        assert w.weights.sum() == pytest.approx(1.0, abs=1e-9)
        assert set(w.ids) <= set(range(v))


class TestBaselineWeights:
    def test_direct_identity(self):
        for p in (np.full(4, 0.25), np.array([0.0, 0.0, 1.0, 0.0]), ORACLE_P):
            for pos in range(4):
                w = feedback_weights("direct_mixture", p, pos, normalized_entropy(p, 4), 1.0)
                np.testing.assert_array_equal(w, p)
                assert w is not p

    def test_one_hot(self):
        # the standard rule: one-hot at the sampled token's support position
        for p in (np.full(4, 0.25), np.array([0.0, 0.0, 1.0, 0.0]), ORACLE_P):
            for pos in range(4):
                w = feedback_weights("standard", p, pos, normalized_entropy(p, 4), 1.0)
                np.testing.assert_array_equal(w, np.eye(4)[pos])
        assert one_hot(7).to_dense(8).tolist() == np.eye(8)[7].tolist()

    def test_one_hot_out_of_range(self):
        from moi.embedding import EmbeddingTable, mix_embeddings

        table = EmbeddingTable(np.zeros((8, 2), dtype=np.float32))
        for token in (8, -1):
            with pytest.raises(IndexError):
                mix_embeddings(table, one_hot(token))


class TestValidatedOnce:
    def test_each_weight_rule_checks_its_input_once(self, monkeypatch):
        calls = []
        real = mix_core.check_probs
        monkeypatch.setattr(mix_core, "check_probs", lambda p: calls.append(p) or real(p))
        p = np.array([0.7, 0.2, 0.05, 0.05])
        w = posterior_mix_weights(IDS4, p, 0, 1.0, 4)
        # the input once, then the weights in the MixingWeights constructor
        assert len(calls) == 2 and calls[0] is p and calls[1] is w.weights
        assert w.weights.sum() == pytest.approx(1.0, abs=1e-12)


class TestTypes:
    def test_mix_config_validation(self):
        assert MixConfig("moi", 1.0).beta == 1.0
        with pytest.raises(ValueError):
            MixConfig("bogus", 1.0)
        with pytest.raises(ValueError):
            MixConfig("moi", 0.0)

    # at beta = inf the moi weight was inf / inf = NaN: generate failed a
    # step later on non-finite logits, posterior_mix_weights on its own weights
    @pytest.mark.parametrize("beta", [math.inf, -math.inf, math.nan, 0.0, -1.0])
    def test_beta_must_be_finite_and_positive(self, beta):
        with pytest.raises(ValueError, match="beta"):
            MixConfig("moi", beta)
        with pytest.raises(ValueError, match="beta"):
            posterior_mix_weights(IDS4, ORACLE_P, 0, beta, 4)

    def test_mixing_weights_validation(self):
        with pytest.raises(ValueError):
            MixingWeights(ids=np.array([0, 1]), weights=np.array([0.7, 0.7]))
        with pytest.raises(ValueError):
            MixingWeights(ids=np.array([0]), weights=np.array([-1.0]))
        with pytest.raises(ValueError):
            MixingWeights(ids=np.array([], dtype=np.int64), weights=np.array([]))
        with pytest.raises(ValueError):
            MixingWeights(ids=np.array([0, 1]), weights=np.array([np.nan, 1.0]))
        with pytest.raises(ValueError, match="aligned"):
            MixingWeights(ids=np.array([0, 1, 2]), weights=np.array([0.5, 0.5]))

    # each of these was once truncated to an int: 1.7 -> 1, 0.9 -> 0, 1.9 -> 1
    def test_mixing_weights_float_ids_rejected(self):
        with pytest.raises(TypeError, match="integer dtype"):
            MixingWeights([1.7, 0.2], [0.5, 0.5])
        with pytest.raises(TypeError, match="integer dtype"):
            MixingWeights([True, False], [0.5, 0.5])

    def test_posterior_float_ids_rejected(self):
        with pytest.raises(TypeError, match="integer dtype"):
            posterior_mix_weights([0.9, 1.2], [0.5, 0.5], 1, 1.0, 4)

    def test_posterior_float_sampled_rejected(self):
        for sampled in (1.9, True, "1"):
            with pytest.raises(TypeError):
                posterior_mix_weights([0, 1], [0.5, 0.5], sampled, 1.0, 4)

    def test_numpy_integer_ids_accepted(self):
        want = posterior_mix_weights([0, 1], [0.5, 0.5], 1, 1.0, 4)
        for ids in (np.array([0, 1], dtype=np.uint8), np.array([0, 1], dtype=np.int32)):
            got = posterior_mix_weights(ids, [0.5, 0.5], np.int16(1), 1.0, 4)
            assert got.ids.dtype == np.int64 and got.ids.tolist() == [0, 1]
            assert got.weights.tobytes() == want.weights.tobytes()
        assert MixingWeights(np.array([3], dtype=np.uint64), [1.0]).ids.tolist() == [3]

    def test_weight_of_outside_support(self):
        assert one_hot(1).weight_of(2) == 0.0
