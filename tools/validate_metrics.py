#!/usr/bin/env python3
"""Validates the metrics registry blocks in a bench --json output.

The document is {"header": {...}, "cells": [...]} where each cell is a
schema-v2 cell record whose "registry" is an array of
{"name", "kind", "count", "ms"} entries (empty unless the bench ran with
--metrics). For every cell with a non-empty registry, checks that the
per-stage counters crew/scoring/predictions/<stage> sum to
crew/scoring/predictions (the stage split partitions the total). Across
the run, the required per-stage breakdown metrics must be present
(materialize / predict timings plus the affinity, clustering and
attribution stage durations).

Usage: tools/validate_metrics.py result.json
Exit code 0 on success, 1 with a diagnostic on the first violation.
"""

import json
import sys

REQUIRED_ANYWHERE = [
    "crew/scoring/materialize",
    "crew/scoring/predict",
    "crew/stage/affinity",
    "crew/stage/clustering",
    "crew/stage/attribution",
]


def fail(msg):
    print(f"validate_metrics: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    if len(sys.argv) != 2:
        fail("usage: validate_metrics.py result.json")
    try:
        with open(sys.argv[1], "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot load {sys.argv[1]}: {e}")

    cells = doc.get("cells")
    if not isinstance(cells, list) or not cells:
        fail('missing or empty "cells"')

    seen_names = set()
    checked = 0
    for i, cell in enumerate(cells):
        registry = cell.get("registry")
        if not isinstance(registry, list):
            fail(f"cell {i}: missing or non-array \"registry\"")
        if not registry:
            continue
        label = f"cell {i} ({cell.get('dataset')}/{cell.get('variant')})"
        counts = {entry["name"]: entry["count"] for entry in registry}
        seen_names.update(counts)

        total = counts.get("crew/scoring/predictions", 0)
        stage_sum = sum(
            count for name, count in counts.items()
            if name.startswith("crew/scoring/predictions/"))
        if stage_sum != total:
            fail(f"{label}: stage counters sum to {stage_sum}, "
                 f"total is {total}")
        checked += 1

    if checked == 0:
        fail("no cell carries a non-empty registry "
             "(was the bench run with --metrics?)")
    missing = [name for name in REQUIRED_ANYWHERE if name not in seen_names]
    if missing:
        fail(f"required metrics never appeared: {missing}")
    print(f"validate_metrics: OK: {checked} cell(s) checked, "
          f"{len(seen_names)} distinct metric name(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
