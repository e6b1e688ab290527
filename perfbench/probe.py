"""Time one set-up in a fresh process: import hdfrontier, then prepare the main call.

Usage: ``python3 probe.py '<task json>'``, with the BLAS thread count and
``PYTHONPATH`` already set by ``run.py``.  A Monte Carlo task builds its
``ScenarioSpec``, population and population frontier; a rolling task ingests
the panel CSV and builds its ``RollingConfig``.  Prints one JSON line with
``setup_s`` and the path of the imported package.
"""

import json
import sys
import time


def main() -> int:
    task = json.loads(sys.argv[1])
    start = time.perf_counter()
    import hdfrontier

    if task["kind"] == "mc":
        spec = hdfrontier.ScenarioSpec(**task["spec"])
        mu, sigma = hdfrontier.build_population(spec)
        hdfrontier.frontier_params(mu, sigma)
    else:
        hdfrontier.ingest_csv(task["csv"])
        config = dict(task["config"])
        config["winsor_quantiles"] = tuple(config["winsor_quantiles"])
        config["kinds"] = tuple(config["kinds"])
        hdfrontier.RollingConfig(**config)
    elapsed = time.perf_counter() - start
    print(json.dumps({"setup_s": elapsed, "module": hdfrontier.__file__}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
