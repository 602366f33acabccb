"""Record the solve result of every pooled instance in reference.json.

    python3 bench/make_reference.py [WORKLOAD ...]

Solves each geometry seed in the pool through ``maxcap solve`` exactly as
the benchmark does and stores the objective it prints and its gradient and
exchange iterations.  Run it on the commit whose results are the reference;
the benchmark then fails any solve that ends below its objective (a
different selection that scores as well is accepted), and draws each run's
instances from the seeds with the pool's median iteration counts.
Naming workloads recomputes only those and keeps the other entries.
"""

from __future__ import annotations

import json
import sys

import run


def main(argv):
    maxcap = run.load_maxcap()
    workloads = argv or list(run.SOLVES)
    reference = json.loads(run.REFERENCE.read_text()) if run.REFERENCE.exists() else {}
    workdir = run.OUT_DIR / "reference"
    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / "instance.mcp"
    for workload in workloads:
        spec = run.SOLVES[workload]
        objectives, gradient, exchange = [], [], []
        for geo in range(run.POOL):
            maxcap.write_instance(run.generate(spec, geo)[0], path)
            code, out, err = run.run_op(maxcap.cli.main, run.solve_argv(path, spec, traced=False))
            if code != 0:
                raise SystemExit(f"{workload} geometry {geo}: exit {code}: {err}")
            payload = json.loads(out)
            objectives.append(payload["objective"])
            gradient.append(payload["phases"][1]["iterations"])
            exchange.append(payload["phases"][2]["iterations"])
            print(f"{workload} g{geo}: {objectives[-1]!r} {gradient[-1]} {exchange[-1]}", flush=True)
        reference[workload] = {"objective": objectives, "gradient_iterations": gradient,
                               "exchange_iterations": exchange}
    path.unlink(missing_ok=True)
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
