import numpy as np
import pytest

from maxcap import (GeneratorParams, Instance, MultinomialLogit, NestedLogit, Zone, assign_nests,
                    generate_euclidean)

MU_GRID = (1.1, 1.2, 1.3, 1.4, 1.5)


def planar(zones=30, m=15, beta=1.0, alpha=0.1, seed=0, nested=False):
    """Small planar instance; nested variant uses five near-equal nests."""
    params = GeneratorParams(zones=zones, locations=m, competitors=5,
                             alpha=alpha, beta=beta, seed=seed)
    model = assign_nests(m, 5, MU_GRID) if nested else MultinomialLogit()
    return generate_euclidean(params, model)


def dense_random(rng, zones=6, m=9, nested=False, zero_frac=0.4):
    """Instance from a raw attraction matrix; harder for greedy than planar ones.

    ``nested="interleaved"`` puts location j in nest j % 3 with mu (1, 1.3, 1.5):
    non-contiguous nests, one of them with unit mu.
    """
    Y = rng.uniform(0.0, 3.0, (zones, m)) * (rng.random((zones, m)) >= zero_frac)
    q = rng.uniform(0.5, 3.0, zones)
    if nested == "interleaved":
        model = NestedLogit([j % 3 for j in range(m)], (1.0, 1.3, 1.5))
    elif nested:
        model = assign_nests(m, 3, (1.1, 1.3, 1.5))
    else:
        model = MultinomialLogit()
    return Instance([Zone(q[i], Y[i]) for i in range(zones)], model)


@pytest.fixture
def mnl_instance():
    return planar(seed=3)


@pytest.fixture
def nested_instance():
    return planar(seed=3, nested=True)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
