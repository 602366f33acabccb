import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from maxcap import MultinomialLogit, NestedLogit

SQRT2 = math.sqrt(2.0)


def random_nested(data, m):
    """Draw a valid nested model: every nest referenced, all mu >= 1."""
    n_nests = data.draw(st.integers(1, min(4, m)))
    raw = data.draw(st.lists(st.integers(0, n_nests - 1), min_size=m, max_size=m))
    # remap so every nest index in [0, L) is actually used
    used = sorted(set(raw))
    nest_of = np.array([used.index(v) for v in raw])
    mu = np.array(data.draw(st.lists(
        st.floats(1.0, 4.0, allow_nan=False), min_size=len(used), max_size=len(used))))
    return NestedLogit(nest_of, mu)


def any_model(data, m):
    if data.draw(st.booleans()):
        return MultinomialLogit()
    return random_nested(data, m)


class TestValues:
    def test_mnl_is_plain_sum(self):
        mnl = MultinomialLogit()
        assert mnl.value_rows([[1.0, 2.0, 3.0]])[0] == 6.0
        assert mnl.value_rows([[0.0, 0.0, 0.0]])[0] == 0.0

    def test_single_nest_mu2(self):
        model = NestedLogit([0, 0], [2.0])
        assert model.value_rows([[1.0, 1.0]])[0] == pytest.approx(SQRT2, abs=1e-12)

    def test_empty_nest_contributes_zero(self):
        model = NestedLogit([0, 0, 1], [2.0, 1.5])
        assert model.value_rows([[0.0, 0.0, 2.0]])[0] == pytest.approx(2.0, abs=1e-12)


class TestGradients:
    def test_mnl_gradient_is_ones(self):
        assert MultinomialLogit().grad_rows([[5.0, 7.0]])[0].tolist() == [1.0, 1.0]

    def test_single_nest_mu2(self):
        g = NestedLogit([0, 0], [2.0]).grad_rows([[1.0, 1.0]])[0]
        assert g == pytest.approx([1 / SQRT2, 1 / SQRT2], abs=1e-12)

    def test_zero_nest_directional_limit(self):
        model = NestedLogit([0, 0], [2.0])
        assert model.grad_rows([[0.0, 0.0]])[0].tolist() == [1.0, 1.0]
        # the convention matches the growth rate along each axis ray
        for t in (1e-6, 1e-9):
            assert model.value_rows([[t, 0.0]])[0] / t == pytest.approx(1.0, rel=1e-9)

    def test_member_with_zero_attraction_in_live_nest(self):
        g = NestedLogit([0, 0], [2.0]).grad_rows([[0.0, 3.0]])[0]
        assert g[0] == 0.0 and g[1] == pytest.approx(1.0)


class TestProbabilities:
    def test_mnl_symmetric(self):
        p = MultinomialLogit().probabilities_rows([[1.0, 1.0]])[0]
        assert p == pytest.approx([1 / 3, 1 / 3, 1 / 3], abs=1e-15)

    def test_no_open_locations(self):
        assert MultinomialLogit().probabilities_rows([[0.0, 0.0]])[0].tolist() == [0.0, 0.0, 1.0]

    def test_single_nest_mu2(self):
        p = NestedLogit([0, 0], [2.0]).probabilities_rows([[1.0, 1.0]])[0]
        outside = 1.0 / (1.0 + SQRT2)
        inside = SQRT2 / (2.0 * (1.0 + SQRT2))
        assert p == pytest.approx([inside, inside, outside], abs=1e-12)


@pytest.mark.parametrize("model", [MultinomialLogit(), NestedLogit([0, 0, 1, 1, 2], [1.0, 1.3, 2.0])],
                         ids=["mnl", "nested"])
def test_rows_equal_one_row_batches(model):
    y = np.random.default_rng(5).uniform(0.0, 3.0, (9, 5))
    y[::4, 2:4] = 0.0  # nest 1 (mu 1.3) is empty in these rows
    assert model.probabilities_rows(y).shape == (9, 6)
    for method in (model.value_rows, model.grad_rows, model.probabilities_rows):
        one_row_batches = np.concatenate([method(y[i:i + 1]) for i in range(len(y))])
        assert method(y).tobytes() == one_row_batches.tobytes()


class TestValidation:
    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            NestedLogit([0, 0], [1.5]).value_rows([[1.0, 2.0, 3.0]])

    def test_negative_attraction(self):
        with pytest.raises(ValueError):
            MultinomialLogit().value_rows([[1.0, -0.5]])

    def test_mu_below_one(self):
        with pytest.raises(ValueError):
            NestedLogit([0, 0], [0.5])

    @pytest.mark.parametrize("mu", [math.nan, math.inf])
    def test_non_finite_mu(self, mu):
        # mu = inf would price the empty selection above zero
        with pytest.raises(ValueError, match="mu must all be finite"):
            NestedLogit([0, 0, 1, 1], [mu, 1.2])

    def test_unreferenced_nest(self):
        with pytest.raises(ValueError):
            NestedLogit([0, 0], [1.2, 1.3])

    def test_nest_index_out_of_range(self):
        with pytest.raises(ValueError):
            NestedLogit([0, 3], [1.2, 1.3])

    @pytest.mark.parametrize("nest_of", [[0.5, 1.7, 1.2], np.array([0.0, 1.0, 1.0]), [False, True, True]])
    def test_non_integer_nest_indices_rejected(self, nest_of):
        # a cast would truncate [0.5, 1.7, 1.2] to nests [0, 1, 1]
        with pytest.raises(TypeError, match="^nest indices must be integers, got dtype (float64|bool)$"):
            NestedLogit(nest_of, [1.5, 2.0])
        with pytest.raises(ValueError, match="^nest_of must be a non-empty 1-d integer array$"):
            NestedLogit([], [1.5])


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(1, 10))
def test_homogeneity_degree_one(data, m):
    model = any_model(data, m)
    y = np.array(data.draw(st.lists(st.floats(0.0, 5.0), min_size=m, max_size=m)))
    lam = data.draw(st.floats(0.01, 100.0))
    g = model.value_rows([y])[0]
    assert abs(model.value_rows([lam * y])[0] - lam * g) <= 1e-9 * max(1.0, lam * g)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(1, 10))
def test_euler_identity(data, m):
    model = any_model(data, m)
    y = np.array(data.draw(st.lists(st.floats(0.0, 5.0), min_size=m, max_size=m)))
    g = model.value_rows([y])[0]
    assert abs(g - float((y * model.grad_rows([y])[0]).sum())) <= 1e-9 * max(1.0, g)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(1, 10))
def test_value_and_gradient_nonnegative(data, m):
    model = any_model(data, m)
    y = np.array(data.draw(st.lists(st.floats(0.0, 5.0), min_size=m, max_size=m)))
    assert model.value_rows([y])[0] >= 0.0
    assert np.all(model.grad_rows([y])[0] >= 0.0)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(1, 10))
def test_gradient_zero_homogeneity(data, m):
    # positive entries keep every nest sum positive, where the claim applies
    model = any_model(data, m)
    y = np.array(data.draw(st.lists(st.floats(0.1, 5.0), min_size=m, max_size=m)))
    lam = data.draw(st.floats(0.01, 100.0))
    g0, g1 = model.grad_rows([y])[0], model.grad_rows([lam * y])[0]
    assert np.all(np.abs(g1 - g0) <= 1e-9 * np.maximum(1.0, np.abs(g0)))


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(1, 8))
def test_probabilities_normalize(data, m):
    model = any_model(data, m)
    y = np.array(data.draw(st.lists(st.floats(0.0, 5.0), min_size=m, max_size=m)))
    p = model.probabilities_rows([y])[0]
    assert abs(p.sum() - 1.0) <= 1e-12
    assert np.all(p >= 0.0) and p[-1] > 0.0


def test_gradient_matches_finite_differences(rng):
    # independent oracle: central differences of the generating function
    step = 1e-6
    for trial in range(25):
        m = int(rng.integers(2, 12))
        if trial % 2:
            n_nests = int(rng.integers(1, min(4, m) + 1))
            nest_of = rng.integers(0, n_nests, m)
            nest_of[:n_nests] = np.arange(n_nests)
            model = NestedLogit(nest_of, rng.uniform(1.0, 4.0, n_nests))
        else:
            model = MultinomialLogit()
        y = rng.uniform(0.1, 5.0, m)
        grad = model.grad_rows([y])[0]
        for j in range(m):
            hi, lo = y.copy(), y.copy()
            hi[j] += step
            lo[j] -= step
            fd = (model.value_rows([hi])[0] - model.value_rows([lo])[0]) / (2 * step)
            assert abs(fd - grad[j]) <= 1e-6 * max(1e-8, abs(grad[j]))


def test_nested_with_unit_mu_equals_mnl(rng):
    m = 9
    nested = NestedLogit(rng.integers(0, 3, m - 3).tolist() + [0, 1, 2], np.ones(3))
    mnl = MultinomialLogit()
    for _ in range(50):
        y = rng.uniform(0.0, 5.0, m)
        assert abs(nested.value_rows([y])[0] - mnl.value_rows([y])[0]) <= 1e-12
        assert np.all(np.abs(nested.grad_rows([y])[0] - mnl.grad_rows([y])[0]) <= 1e-12)
        assert np.all(np.abs(nested.probabilities_rows([y])[0] - mnl.probabilities_rows([y])[0]) <= 1e-12)
