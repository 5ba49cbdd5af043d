#!/usr/bin/env python3
"""Diff a freshly generated BENCH_*.json against its committed baseline.

Stdlib-only, used by the CI bench smoke:

    python3 tools/check_bench_baseline.py BASELINE.json FRESH.json
    python3 tools/check_bench_baseline.py --self-test

The committed baselines at the repo root pin the SHAPE of the perf
trajectory, not the numbers: experiment id, schema version, the set of
tables (titles and column headers, order-sensitive), and the manifest
key set must match. Measured values are machine-dependent and are NOT
compared — a perf regression shows up in the trajectory, not as a CI
failure; a silently dropped table or renamed column does fail.

Exits non-zero with one message per violation.
"""
import json
import re
import sys


def load(path, errors):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        errors.append(f"{path}: cannot load: {err}")
        return None


def check(baseline, fresh, errors):
    for key in ("experiment", "schema_version"):
        if baseline.get(key) != fresh.get(key):
            errors.append(
                f"'{key}' mismatch: baseline {baseline.get(key)!r} "
                f"vs fresh {fresh.get(key)!r}")

    base_manifest = baseline.get("manifest")
    fresh_manifest = fresh.get("manifest")
    if not isinstance(base_manifest, dict):
        errors.append("baseline: 'manifest' missing or not an object")
    elif not isinstance(fresh_manifest, dict):
        errors.append("fresh: 'manifest' missing or not an object")
    else:
        missing = sorted(set(base_manifest) - set(fresh_manifest))
        if missing:
            errors.append(f"fresh manifest lost keys: {missing}")

    base_tables = baseline.get("tables")
    fresh_tables = fresh.get("tables")
    if not isinstance(base_tables, list) or not isinstance(fresh_tables,
                                                           list):
        errors.append("'tables' must be a list in both files")
        return
    if len(base_tables) != len(fresh_tables):
        errors.append(f"table count changed: baseline {len(base_tables)} "
                      f"vs fresh {len(fresh_tables)}")
        return
    for i, (base, new) in enumerate(zip(base_tables, fresh_tables)):
        where = f"tables[{i}]"
        base_title = base.get("title", "")
        new_title = new.get("title", "")
        # Titles may embed measured numbers (e.g. a baseline steps/s), so
        # compare their non-numeric skeletons.
        if _skeleton(base_title) != _skeleton(new_title):
            errors.append(f"{where}: title changed:\n"
                          f"  baseline: {base_title!r}\n"
                          f"  fresh:    {new_title!r}")
        if base.get("headers") != new.get("headers"):
            errors.append(f"{where}: column headers changed:\n"
                          f"  baseline: {base.get('headers')!r}\n"
                          f"  fresh:    {new.get('headers')!r}")
        if not new.get("rows"):
            errors.append(f"{where}: fresh table has no rows")


_NUMBER = re.compile(r"\d+(?:\.\d+)?")


def _skeleton(title):
    """The title with every number, decimal part included, collapsed to
    one '#' (titles may embed measured numbers of any magnitude)."""
    return _NUMBER.sub("#", str(title))


def _table_file(title):
    return {"experiment": "x", "schema_version": 1, "manifest": {"k": 1},
            "tables": [{"title": title, "headers": ["a"], "rows": [[1]]}]}


def self_test():
    """Check the shape rules on built-in cases; return the failures."""
    failures = []
    same = [
        # A measured number crossing a power of ten keeps the shape.
        ("uncached baseline 9168.428408 steps/s",
         "uncached baseline 10586.1 steps/s"),
        ("n = 256, m = 2^16", "n = 4096, m = 2^24"),
        ("ratio 0.97x", "ratio 12x"),
    ]
    differ = [
        ("uncached baseline 9168.4 steps/s", "cached baseline 9168.4 steps/s"),
        ("16 steps", "16 runs"),
        ("steps/s gp", "steps/s gp 1wk"),
    ]
    for base, fresh in same:
        errors = []
        check(_table_file(base), _table_file(fresh), errors)
        if errors:
            failures.append(f"{base!r} vs {fresh!r} should match: {errors}")
    for base, fresh in differ:
        errors = []
        check(_table_file(base), _table_file(fresh), errors)
        if not errors:
            failures.append(f"{base!r} vs {fresh!r} should differ")
    return failures


def main():
    if sys.argv[1:] == ["--self-test"]:
        failures = self_test()
        for failure in failures:
            print(f"check_bench_baseline self-test: {failure}",
                  file=sys.stderr)
        if failures:
            return 1
        print("check_bench_baseline: self-test passed")
        return 0
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    errors = []
    baseline = load(sys.argv[1], errors)
    fresh = load(sys.argv[2], errors)
    if baseline is not None and fresh is not None:
        check(baseline, fresh, errors)
    if errors:
        for err in errors:
            print(f"check_bench_baseline: {err}", file=sys.stderr)
        return 1
    print(f"check_bench_baseline: {sys.argv[2]} matches the shape of "
          f"{sys.argv[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
