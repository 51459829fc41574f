"""Check that the count metrics of two traced runs repeat exactly.

Each traced run of ``e2ebench/run.py --trace 1`` writes a sidecar
``.bench_out/trace-<workload>-seed<n>.json`` whose per-layer entries
carry a ``kind``: ``count`` (work counts and ratios of counts) or
``timing``.  Counts are deterministic functions of the inputs, so two
traced runs at one seed must agree on every one of them::

    python3 e2ebench/compare_counts.py first.json second.json

Exits 1 and lists the differing counts if any differ.
"""

from __future__ import annotations

import argparse
import json


def count_metrics(path: str) -> dict[str, float]:
    with open(path) as handle:
        per_layer = json.load(handle)["per_layer"]
    return {name: entry["value"] for name, entry in per_layer.items()
            if entry["kind"] == "count"}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("first")
    parser.add_argument("second")
    args = parser.parse_args(argv)
    first, second = count_metrics(args.first), count_metrics(args.second)
    differing = sorted(name for name in first.keys() | second.keys()
                       if first.get(name) != second.get(name))
    for name in differing:
        print(f"{name}: {first.get(name)} != {second.get(name)}")
    print(f"{len(first) - len(differing)} of {len(first)} counts repeat "
          f"exactly")
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main())
