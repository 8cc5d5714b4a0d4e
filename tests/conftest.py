import numpy as np
import pytest

from moi.embedding import EmbeddingTable, lookup
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


def plain_prompt_run(model, prompt, capacity: int):
    """The prompt fed one token at a time through `forward_step` into a new
    state of `capacity` positions: the state and the last logits."""
    state = model.new_state(capacity)
    for token in prompt:
        logits = model.forward_step(state, lookup(model.embedding_table, token))
    return state, logits


def plain_greedy(model, prompt, budget: int, stop_tokens=frozenset()) -> list[int]:
    """The greedy reference written out, apart from the engine's batched
    rows: a state of L + budget - 1 positions, the prompt run, then argmax
    to a stop token or `budget` tokens."""
    state, logits = plain_prompt_run(model, prompt, len(prompt) + budget - 1)
    tokens = []
    for step in range(budget):
        tokens.append(int(np.argmax(logits)))
        if tokens[-1] in stop_tokens or step == budget - 1:
            return tokens
        logits = model.forward_step(state, lookup(model.embedding_table, tokens[-1]))


class OneHotStubModel:
    """Toy decoder stand-in whose post-temperature distribution is an exact
    one-hot at a position-determined token, regardless of the input fed.

    Satisfies the duck type `generate` needs: config, embedding_table,
    new_state, forward_step, and a state's fork.
    """

    _PEAK = 1e9

    class _State:
        def __init__(self, length=0):
            self.length = length

        def fork(self, capacity):
            return OneHotStubModel._State(self.length)

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
