"""Temperature scaling, nucleus truncation, and the seeded draw."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from moi.mix_core import check_probs
from moi.sampler import (
    SamplerConfig,
    TruncatedDistribution,
    apply_temperature,
    make_rng,
    sample_position,
    top_p_truncate,
)

SOFTMAX_210 = np.array([0.6652409557748219, 0.24472847105479764, 0.09003057317038046])


def sample_categorical(dist: TruncatedDistribution, rng) -> int:
    """The token id at the drawn support position, as the decode loop takes it."""
    return int(dist.ids[sample_position(dist, rng)])


class TestApplyTemperature:
    def test_equal_logits_uniform(self):
        for t in (0.3, 1.0, 7.0):
            np.testing.assert_allclose(apply_temperature(np.zeros(3), t), 1 / 3, atol=1e-15)

    def test_identity_scaling(self):
        np.testing.assert_allclose(apply_temperature(np.array([2.0, 1.0, 0.0]), 1.0), SOFTMAX_210, atol=1e-15)

    def test_low_temperature_concentrates(self):
        p = apply_temperature(np.array([2.0, 1.0, 0.0]), 0.01)
        assert p[0] >= 0.999

    def test_argmax_preserved(self):
        rng = np.random.Generator(np.random.PCG64(2))
        for _ in range(50):
            logits = rng.normal(0, 3, size=int(rng.integers(2, 40)))
            for t in (0.05, 0.7, 1.0, 5.0):
                assert int(np.argmax(apply_temperature(logits, t))) == int(np.argmax(logits))

    def test_large_logits_stable(self):
        p = apply_temperature(np.array([1e4, 1e4 - 5.0]), 1.0)
        assert np.all(np.isfinite(p)) and p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            apply_temperature(np.array([np.inf, 0.0]), 1.0)
        with pytest.raises(ValueError):
            apply_temperature(np.array([1.0, 2.0]), 0.0)


class TestTopPTruncate:
    def test_prefix_rule(self):
        d = top_p_truncate(np.array([0.5, 0.3, 0.15, 0.05]), 0.8)
        assert d.ids.tolist() == [0, 1]
        np.testing.assert_allclose(d.probs, [0.625, 0.375], atol=1e-15)

    def test_top_p_one_keeps_everything(self):
        p = np.array([0.5, 0.3, 0.15, 0.05])
        d = top_p_truncate(p, 1.0)
        assert d.ids.tolist() == [0, 1, 2, 3]
        np.testing.assert_allclose(d.probs, p, atol=1e-15)

    def test_first_token_covers(self):
        d = top_p_truncate(np.array([0.5, 0.3, 0.15, 0.05]), 0.4)
        assert d.ids.tolist() == [0]
        assert d.probs.tolist() == [1.0]

    def test_ties_break_by_ascending_id(self):
        d = top_p_truncate(np.array([0.25, 0.25, 0.25, 0.25]), 0.5)
        assert d.ids.tolist() == [0, 1]

    def test_zero_mass_tail_dropped_at_top_p_one(self):
        d = top_p_truncate(np.array([0.6, 0.4, 0.0]), 1.0)
        assert d.ids.tolist() == [0, 1]

    def test_kept_mass_reaches_threshold(self):
        rng = np.random.Generator(np.random.PCG64(3))
        for _ in range(200):
            v = int(rng.integers(2, 30))
            p = rng.dirichlet(np.ones(v) * rng.uniform(0.2, 3.0))
            top_p = float(rng.uniform(0.05, 1.0))
            d = top_p_truncate(p, top_p)
            assert d.ids.size >= 1
            kept_mass = p[d.ids].sum()
            assert kept_mass >= min(top_p, p.sum()) - 1e-12
            # minimality: dropping the last kept token must undershoot
            if d.ids.size > 1:
                assert kept_mass - p[d.ids[-1]] < top_p
            assert d.probs.sum() == pytest.approx(1.0, abs=1e-9)
            # descending-prob order
            assert np.all(np.diff(p[d.ids]) <= 1e-15)


class TestValidatedOnce:
    def test_top_p_truncate_checks_once(self, monkeypatch):
        from moi import sampler

        calls = []
        monkeypatch.setattr(sampler, "check_probs", lambda p: calls.append(1) or check_probs(p))
        d = top_p_truncate(np.array([0.5, 0.3, 0.15, 0.05]), 0.8)
        assert calls == [1]
        assert d.ids.dtype == np.int64 and d.probs.dtype == np.float64


class TestSampleCategorical:
    def test_singleton_support(self):
        d = TruncatedDistribution(ids=np.array([5]), probs=np.array([1.0]))
        for seed in range(5):
            assert sample_categorical(d, make_rng(seed)) == 5

    def test_deterministic_given_seed(self):
        d = top_p_truncate(np.array([0.5, 0.3, 0.15, 0.05]), 0.95)
        a = [sample_categorical(d, make_rng(123)) for _ in range(3)]
        assert a[0] == a[1] == a[2]

    def test_one_draw_consumed(self):
        d = top_p_truncate(np.array([0.5, 0.3, 0.15, 0.05]), 0.95)
        rng1, rng2 = make_rng(77), make_rng(77)
        sample_categorical(d, rng1)
        rng2.random()
        assert rng1.random() == rng2.random()

    def test_empirical_frequencies(self):
        d = TruncatedDistribution(ids=np.array([0, 1]), probs=np.array([0.625, 0.375]))
        rng = make_rng(2024)
        n = 100_000
        hits = sum(1 for _ in range(n) if sample_categorical(d, rng) == 0)
        assert hits / n == pytest.approx(0.625, abs=0.01)

    def test_composition_is_pure(self):
        logits = np.array([0.3, -0.2, 1.4, 0.0, -1.0])

        def draw(seed):
            d = top_p_truncate(apply_temperature(logits, 0.8), 0.9)
            return sample_categorical(d, make_rng(seed))

        for seed in (0, 1, 99):
            assert draw(seed) == draw(seed)


class TestSamplerConfig:
    def test_defaults(self):
        cfg = SamplerConfig()
        assert cfg.temperature == 0.6 and cfg.top_p == 0.95

    def test_validation(self):
        with pytest.raises(ValueError):
            SamplerConfig(temperature=0.0)
        with pytest.raises(ValueError):
            SamplerConfig(top_p=0.0)
        with pytest.raises(ValueError):
            SamplerConfig(top_p=1.5)


# ---------------------------------------------------------------------------
# The fast checks accept and reject exactly what a plain predicate does
# ---------------------------------------------------------------------------

_SPECIALS = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, -1e-300, -0.5, 1.0])


def _reference_logits_ok(z) -> bool:
    z = np.asarray(z, dtype=np.float64)
    return z.ndim == 1 and z.size > 0 and all(math.isfinite(v) for v in z.tolist())


def _reference_probs_ok(p) -> bool:
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        return False
    values = p.tolist()
    if not all(math.isfinite(v) and v >= 0.0 for v in values):
        return False
    return abs(float(np.sum(p)) - 1.0) <= 1e-9


def _accepts(fn, *args) -> bool:
    try:
        fn(*args)
    except ValueError:
        return False
    return True


@st.composite
def _logit_arrays(draw):
    shape = draw(hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=6))
    z = draw(hnp.arrays(np.float64, shape, elements=st.floats(-50.0, 50.0)))
    if z.size and draw(st.booleans()):
        z.flat[draw(st.integers(0, z.size - 1))] = draw(_SPECIALS)
    return z


@st.composite
def _prob_arrays(draw):
    """Mostly near-valid distributions, some with a special value planted
    or the sum pushed just inside or outside the 1e-9 tolerance."""
    shape = draw(hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=6))
    raw = draw(hnp.arrays(np.float64, shape, elements=st.floats(0.0, 1.0)))
    p = raw / raw.sum() if raw.sum() > 0 else raw
    kind = draw(st.sampled_from(["as_is", "special", "shift"]))
    if p.size and kind == "special":
        p.flat[draw(st.integers(0, p.size - 1))] = draw(_SPECIALS)
    elif p.size and kind == "shift":
        p.flat[draw(st.integers(0, p.size - 1))] += draw(
            st.sampled_from([-1e-3, -2e-9, -1.1e-9, -5e-10, 5e-10, 1.1e-9, 2e-9, 1e-3])
        )
    return p


class TestChecksMatchReference:
    @settings(max_examples=400, deadline=None)
    @given(_logit_arrays())
    def test_apply_temperature(self, z):
        assert _accepts(apply_temperature, z, 0.7) == _reference_logits_ok(z)

    @settings(max_examples=400, deadline=None)
    @given(_prob_arrays())
    def test_check_probs(self, p):
        assert _accepts(check_probs, p) == _reference_probs_ok(p)

    def test_named_cases(self):
        for z in ([], [[0.0, 1.0]], [0.0, -math.inf], [math.nan, 1.0], [math.inf]):
            assert not _accepts(apply_temperature, np.array(z), 1.0)
        for p in ([], [[0.5, 0.5]], [1.5, -0.5], [math.nan, 1.0], [math.inf, 0.0],
                  [0.5, 0.5 + 2e-9], [-0.0, 1.0]):
            assert _accepts(check_probs, np.array(p)) == _reference_probs_ok(p)
