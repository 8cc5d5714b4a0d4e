"""Mixed-input decoding engine.

Feeds a posterior-mean mixture of token embeddings back into an
autoregressive decoder instead of the sampled token's one-hot row, plus
the baselines, trace/replay tooling, and analysis harnesses around it.
"""

from .embedding import EmbeddingTable, lookup, mix_embeddings
from .kernels import backend_name
from .mix_core import (
    MixConfig,
    MixingWeights,
    direct_mix_weights,
    normalized_entropy,
    posterior_mix_weights,
)
from .pipeline import (
    GenConfig,
    GenerationResult,
    Prefill,
    StepRecord,
    generate,
    prefill,
    read_trace,
    replay_verify,
    write_trace,
)
from .sampler import SamplerConfig, TruncatedDistribution, apply_temperature, make_rng, top_p_truncate
from .toy_lm import Model, ModelConfig, init_random, load_weights, save_weights

__version__ = "0.1.0"

__all__ = [
    "EmbeddingTable",
    "GenConfig",
    "GenerationResult",
    "MixConfig",
    "MixingWeights",
    "Model",
    "ModelConfig",
    "Prefill",
    "SamplerConfig",
    "StepRecord",
    "TruncatedDistribution",
    "apply_temperature",
    "backend_name",
    "direct_mix_weights",
    "generate",
    "init_random",
    "load_weights",
    "lookup",
    "make_rng",
    "mix_embeddings",
    "normalized_entropy",
    "posterior_mix_weights",
    "prefill",
    "read_trace",
    "replay_verify",
    "save_weights",
    "top_p_truncate",
    "write_trace",
]
