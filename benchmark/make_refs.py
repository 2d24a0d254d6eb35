"""Rebuild the stored oracle references of the benchmark.

    python3 benchmark/make_refs.py [workload ...]

The brute-force oracle takes about 90 s for tel-search and 7 s for
del-enum on a 2-core machine, too long to repeat on every benchmark run,
so their model sets are kept in refs/<workload>.json together with the
program, horizon and logic they were computed for.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

import workloads  # noqa: E402


def main(names):
    os.makedirs(workloads.REFS_DIR, exist_ok=True)
    for name in names or sorted(workloads.STORED):
        req = workloads.STORED[name]
        start = time.perf_counter()
        models = workloads.oracle_models(req)
        data = {"program": req.text, "n": req.n, "semantics": req.semantics,
                "models": workloads.encode_models(models)}
        with open(workloads.ref_path(name), "w") as fh:
            json.dump(data, fh, indent=1)
            fh.write("\n")
        print("%s: %d models in %.1f s" % (name, len(models),
                                           time.perf_counter() - start))


if __name__ == "__main__":
    main(sys.argv[1:])
