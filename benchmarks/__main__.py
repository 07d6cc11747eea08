"""``python -m benchmarks [name ...]`` — regenerate the kept results.

Runs each named bench (all six by default) at its full scale, which
prints its tables; rewrites ``BENCH_<name>.json`` and says whether the
exact half moved against the file it replaced; prints a ``FAIL:`` line
per failed gate and exits non-zero on any.  The figure benches keep no
artifact and run under pytest only; ``python -m benchmarks.e2e`` is the
separate end-to-end command ``BENCHMARK.json`` names.
"""

import importlib
import sys

from benchmarks import harness

BENCHES = ("model_fastpath", "multi_region", "multi_tenant", "observability",
           "read_storm", "shard_scaling")


def main(names) -> int:
    unknown = [name for name in names if name not in BENCHES]
    if unknown:
        print(f"no such bench: {', '.join(unknown)} "
              f"(known: {', '.join(BENCHES)})", file=sys.stderr)
        return 2
    failed = False
    for name in names or BENCHES:
        bench = importlib.import_module(f"benchmarks.bench_{name}")
        result = bench.run()
        changed = harness.write_result(name, result["exact"], result["host"])
        print(f"\n{name}: wrote BENCH_{name}.json, exact: "
              + (f"moved {', '.join(changed)}" if changed else "same"))
        for failure in bench.check(result):
            failed = True
            print(f"FAIL: {name}: {failure}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
