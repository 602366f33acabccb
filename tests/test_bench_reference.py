"""The benchmark's pool instances still solve to their recorded results.

``bench/reference.json`` holds, per geometry seed of each solve workload of
``bench/run.py``, the objective (to 12 decimals) and the gradient and
exchange iterations that ``maxcap solve --json`` printed.  Only the
benchmark itself checks them, so these tests rebuild the first seeds of
every pool with the benchmark's recipe, without importing ``bench/``, and
solve them with the benchmark's settings.  The stored objectives predate
the gain-form arithmetic and differ from today's output by one unit in the
12th decimal on 14 of the 384 pool instances, so they are compared to that
unit.
"""

import json
from pathlib import Path

import pytest

from maxcap import (GeneratorParams, MmnlParams, MultinomialLogit, SolverConfig, assign_nests,
                    generate_euclidean, ggx, mmnl_expand)

REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference.json"
MU = (1.1, 1.2, 1.3, 1.4, 1.5)
SEEDS = range(6)
# workload -> (model, zones, locations, C), as bench/run.py's SOLVES
WORKLOADS = {
    "solve-nested": ("nested", 800, 100, 30),
    "solve-mnl": ("mnl", 1000, 150, 25),
    "solve-mmnl": ("mmnl", 25, 25, 5),
}


def pool_instance(model, zones, locations, seed):
    params = GeneratorParams(zones=zones, locations=locations, competitors=5,
                             alpha=0.1, beta=5.0, seed=seed)
    if model == "mmnl":
        return mmnl_expand(params, MmnlParams(theta=5.0, samples=100, seed=seed))
    if model == "nested":
        return generate_euclidean(params, assign_nests(locations, len(MU), MU))
    return generate_euclidean(params, MultinomialLogit())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_pool_solves_match_reference(workload):
    reference = json.loads(REFERENCE.read_text())[workload]
    model, zones, locations, C = WORKLOADS[workload]
    cfg = SolverConfig(C=C, delta=4)
    for seed in SEEDS:
        solution, report = ggx(pool_instance(model, zones, locations, seed), cfg)
        printed = float(f"{solution.objective:.12f}")
        assert printed == pytest.approx(reference["objective"][seed], rel=0, abs=2e-12), seed
        assert [p.iterations for p in report.phases[1:]] == [
            reference["gradient_iterations"][seed], reference["exchange_iterations"][seed]], seed
