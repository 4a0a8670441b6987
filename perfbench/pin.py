#!/usr/bin/env python3
"""Record the SHA-256 of every workload's result for seeds 0-31.

    python3 perfbench/pin.py

Writes ``perfbench/expected.json``.  Each seed ``n`` is pinned together
with its held-out second seed ``n + 1000000``; ``run.py`` then fails
any operation whose output digest differs from the pinned one.  Re-pin
only when a change is meant to alter results, and say so.
"""

import dataclasses
import json
import sys
import time

import run as bench

#: Seeds pinned, each with its held-out second seed.
SEEDS = range(32)


def main() -> int:
    bench._import_program()
    import workloads

    seeds = list(SEEDS) + [seed + bench.SECOND_SEED_OFFSET for seed in SEEDS]
    pinned = {}
    for name, workload_class in workloads.WORKLOADS.items():
        workload = workload_class(workloads.FULL, bench.WORKDIR / "tmp")
        checker = bench.Checker(name, {})
        digests = pinned[name] = {}
        start = time.perf_counter()
        for seed in seeds:
            outcome, _ = bench._solve_once(workload, seed, checker)
            if checker.failed:
                return 1
            digests[str(seed)] = outcome.digest
        print(f"{name}: {len(seeds)} seeds pinned in {time.perf_counter() - start:.0f} s")
    payload = {"sizes": dataclasses.asdict(workloads.FULL), "digests": pinned}
    bench.EXPECTED.write_text(json.dumps(payload, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
