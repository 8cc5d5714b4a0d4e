import numpy as np
import pytest

from moi.embedding import EmbeddingTable
from moi.toy_lm import Model, ModelConfig, init_random


@pytest.fixture(scope="session")
def default_model() -> Model:
    """The default-config model (init_seed 0)."""
    return init_random(ModelConfig())


@pytest.fixture(scope="session")
def bench_model() -> Model:
    """The documented acceptance model (init_seed 9)."""
    return init_random(ModelConfig(init_seed=9))


@pytest.fixture(scope="session")
def small_model() -> Model:
    """A small, fast model for loop-heavy tests."""
    return init_random(ModelConfig(vocab=48, dim=32, heads=4, layers=2, context=96, init_seed=5))


class OneHotStubModel:
    """Toy decoder stand-in whose post-temperature distribution is an exact
    one-hot at a position-determined token, regardless of the input fed.

    Satisfies the duck type `generate` needs: config, embedding_table,
    new_state, forward_step.
    """

    _PEAK = 1e9

    class _State:
        def __init__(self):
            self.length = 0

    class _Config:
        def __init__(self, vocab, dim, context):
            self.vocab = vocab
            self.dim = dim
            self.context = context

    def __init__(self, vocab=64, dim=8, context=400, table_seed=0, stride=13, offset=5):
        self.config = self._Config(vocab, dim, context)
        rng = np.random.Generator(np.random.PCG64(table_seed))
        self.embedding_table = EmbeddingTable(
            rng.normal(0.0, 1.0, size=(vocab, dim)).astype(np.float32)
        )
        self.stride = stride
        self.offset = offset

    def token_at(self, position: int) -> int:
        return (self.offset + self.stride * position) % self.config.vocab

    def new_state(self, capacity=None):
        return self._State()

    def forward_step(self, state, input_vec):
        if state.length >= self.config.context:
            raise ValueError("context overflow")
        logits = np.zeros(self.config.vocab, dtype=np.float64)
        logits[self.token_at(state.length)] = self._PEAK
        state.length += 1
        return logits


@pytest.fixture
def stub_model() -> OneHotStubModel:
    return OneHotStubModel()
