"""Embedding lookup and sparse mixture aggregation."""

import numpy as np
import pytest

from moi.embedding import EmbeddingTable, lookup, mix_embeddings
from moi.mix_core import MixingWeights, posterior_mix_weights


def table_from(rows) -> EmbeddingTable:
    return EmbeddingTable(np.asarray(rows, dtype=np.float32))


@pytest.fixture(scope="module")
def random_table() -> EmbeddingTable:
    rng = np.random.Generator(np.random.PCG64(2024))
    return EmbeddingTable(rng.normal(0, 1, size=(4, 8)).astype(np.float32))


class TestLookup:
    def test_identity_rows(self):
        t = table_from([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_array_equal(lookup(t, 0), [1.0, 0.0])
        np.testing.assert_array_equal(lookup(t, 1), [0.0, 1.0])

    def test_out_of_range(self):
        t = table_from([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(IndexError):
            lookup(t, 2)
        with pytest.raises(IndexError):
            lookup(t, -1)

    def test_returns_copy(self):
        t = table_from([[1.0, 0.0], [0.0, 1.0]])
        row = lookup(t, 0)
        row[0] = 99.0
        assert t.matrix[0, 0] == 1.0


class TestMixEmbeddings:
    def test_one_hot_is_lookup_bit_exact(self, random_table):
        for i in range(random_table.vocab):
            mixed = mix_embeddings(random_table, MixingWeights(ids=np.array([i]), weights=np.array([1.0])))
            np.testing.assert_array_equal(mixed, lookup(random_table, i))
            assert mixed.dtype == np.float32

    def test_midpoint(self):
        t = table_from([[2.0, 0.0, 4.0], [0.0, 2.0, -4.0]])
        w = MixingWeights(ids=np.array([0, 1]), weights=np.array([0.5, 0.5]))
        np.testing.assert_allclose(mix_embeddings(t, w), [1.0, 1.0, 0.0], atol=0)

    def test_worked_posterior_mixture(self, random_table):
        w = posterior_mix_weights(np.arange(4), np.array([0.7, 0.2, 0.05, 0.05]), 0, 1.0, 4)
        mixed = mix_embeddings(random_table, w)
        # dense dot product straight over the full table
        expected = w.to_dense(4) @ random_table.matrix.astype(np.float64)
        np.testing.assert_allclose(mixed, expected.astype(np.float32), atol=1e-6)

    def test_support_order_irrelevant(self, random_table):
        ids = np.array([2, 0, 3])
        w = np.array([0.2, 0.5, 0.3])
        a = mix_embeddings(random_table, MixingWeights(ids=ids, weights=w))
        b = mix_embeddings(random_table, MixingWeights(ids=ids[::-1].copy(), weights=w[::-1].copy()))
        np.testing.assert_array_equal(a, b)

    def test_out_of_range_support(self, random_table):
        w = MixingWeights(ids=np.array([0, 7]), weights=np.array([0.5, 0.5]))
        with pytest.raises(IndexError):
            mix_embeddings(random_table, w)

    def test_deviation_bound(self):
        rng = np.random.Generator(np.random.PCG64(5))
        table = EmbeddingTable(rng.normal(0, 1, size=(12, 6)).astype(np.float32))
        m64 = table.matrix.astype(np.float64)
        for _ in range(200):
            v = table.vocab
            p = rng.dirichlet(np.ones(v))
            y = int(rng.integers(v))
            beta = float(rng.uniform(0.25, 8.0))
            w = posterior_mix_weights(np.arange(v), p, y, beta, v)
            mixed = mix_embeddings(table, w)
            gap = np.max(np.abs(mixed.astype(np.float64) - m64[y]))
            radius = np.max(np.abs(m64 - m64[y]))
            assert gap <= (1.0 - w.weight_of(y)) * radius + 1e-6

    def test_linearity(self, random_table):
        rng = np.random.Generator(np.random.PCG64(6))
        v = random_table.vocab
        for _ in range(50):
            wa = rng.dirichlet(np.ones(v))
            wb = rng.dirichlet(np.ones(v))
            lam = float(rng.uniform())
            ids = np.arange(v)
            mix_a = mix_embeddings(random_table, MixingWeights(ids=ids, weights=wa))
            mix_b = mix_embeddings(random_table, MixingWeights(ids=ids, weights=wb))
            combo = lam * wa + (1 - lam) * wb
            combo = combo / combo.sum()
            mix_c = mix_embeddings(random_table, MixingWeights(ids=ids, weights=combo))
            np.testing.assert_allclose(mix_c, lam * mix_a + (1 - lam) * mix_b, atol=1e-5)


class TestEmbeddingTable:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            EmbeddingTable(np.zeros((1, 4), dtype=np.float32))
        with pytest.raises(ValueError):
            EmbeddingTable(np.zeros(4, dtype=np.float32))

    def test_rejects_non_finite(self):
        m = np.zeros((3, 2), dtype=np.float32)
        m[1, 1] = np.inf
        with pytest.raises(ValueError):
            EmbeddingTable(m)

    def test_properties(self):
        t = table_from(np.zeros((5, 3)))
        assert t.vocab == 5 and t.dim == 3
