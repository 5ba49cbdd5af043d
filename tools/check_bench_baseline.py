#!/usr/bin/env python3
"""Diff a freshly generated BENCH_*.json against its committed baseline.

Stdlib-only, used by the CI bench smoke:

    python3 tools/check_bench_baseline.py BASELINE.json FRESH.json
    python3 tools/check_bench_baseline.py --self-test

The committed baselines at the repo root pin the SHAPE of the perf
trajectory: experiment id, schema version, the set of tables (titles
and column headers, order-sensitive), and the manifest key set must
match. Measured values are machine-dependent and are NOT compared — a
perf regression shows up in the trajectory, not as a CI failure; a
silently dropped table or renamed column does fail.

The experiments in VALUE_EXPERIMENTS report simulated costs (rounds,
cycles, copy accesses) or closed-form and seeded-map quantities (the
Theorem 1 bound, the Lemma 2 expansion), which no host changes, so
every table row is compared too: strings and integers exactly, other numbers to REL_TOL
relative (compilers and libms may differ in the last bits). Fits are
not compared (their verdicts come from libm-derived R^2), and the
manifest stays keys-only (its worker count is the host's).

Exits non-zero with one message per violation.
"""
import json
import re
import sys

# Experiments whose table rows are compared value by value.
VALUE_EXPERIMENTS = frozenset(
    {"C1", "T2", "T3", "theorem1_bound", "lemma2_expansion"})
REL_TOL = 1e-9


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
        elif baseline.get("experiment") in VALUE_EXPERIMENTS:
            check_rows(where, base.get("rows") or [], new["rows"], errors)


def check_rows(where, base_rows, new_rows, errors):
    if len(base_rows) != len(new_rows):
        errors.append(f"{where}: row count changed: baseline "
                      f"{len(base_rows)} vs fresh {len(new_rows)}")
        return
    for r, (base_row, new_row) in enumerate(zip(base_rows, new_rows)):
        if len(base_row) != len(new_row) or not all(
                _same_cell(a, b) for a, b in zip(base_row, new_row)):
            errors.append(f"{where}.rows[{r}]: value changed:\n"
                          f"  baseline: {base_row!r}\n"
                          f"  fresh:    {new_row!r}")


def _same_cell(base, fresh):
    """Strings, booleans and integer pairs match exactly; any other pair
    of numbers matches to REL_TOL relative."""
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool)
                  for v in (base, fresh))
    if not numbers or (isinstance(base, int) and isinstance(fresh, int)):
        return type(base) is type(fresh) and base == fresh
    return abs(base - fresh) <= REL_TOL * max(abs(base), abs(fresh))


_NUMBER = re.compile(r"\d+(?:\.\d+)?")


def _skeleton(title):
    """The title with every number, decimal part included, collapsed to
    one '#' (titles may embed measured numbers of any magnitude)."""
    return _NUMBER.sub("#", str(title))


def _table_file(title, rows=([1],), experiment="x"):
    return {"experiment": experiment, "schema_version": 1,
            "manifest": {"k": 1},
            "tables": [{"title": title, "headers": ["a"],
                        "rows": [list(row) for row in rows]}]}


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
    # Row values: compared only for the simulated-cost experiments.
    row = ["HP-DMMPC", 7, 7.25, 0.1]
    same_rows = [
        ("T2", row, row),
        ("T2", row, ["HP-DMMPC", 7, 7.25 * (1 + 1e-12), 0.1]),
        ("C1", row, ["HP-DMMPC", 7.0, 7.25, 0.1]),
        ("x", row, ["HP-DMMPC", 8, 9.5, 0.2]),  # shape-only experiment
    ]
    differ_rows = [
        ("T2", row, ["HP-DMMPC", 8, 7.25, 0.1]),
        ("T3", row, ["HP-DMMPC", 7, 7.25 * (1 + 1e-6), 0.1]),
        ("C1", row, ["HP-MPC", 7, 7.25, 0.1]),
        ("C1", row, ["HP-DMMPC", "7", 7.25, 0.1]),
        ("C1", row, row[:3]),
        ("theorem1_bound", row, ["HP-DMMPC", 7, 7.5, 0.1]),
        ("lemma2_expansion", row, ["HP-DMMPC", 7, 7.25, 0.2]),
    ]
    for experiment, base, fresh in same_rows + differ_rows:
        errors = []
        check(_table_file("t", [base], experiment),
              _table_file("t", [fresh], experiment), errors)
        if bool(errors) != ((experiment, base, fresh) in differ_rows):
            failures.append(f"{experiment} row {base!r} vs {fresh!r}: "
                            f"expected {'a' if not errors else 'no'} "
                            f"difference, got {errors or 'none'}")
    errors = []
    check(_table_file("t", [row], "C1"), _table_file("t", [row, row], "C1"),
          errors)
    if not errors:
        failures.append("C1 with an extra row should differ")
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
    what = ("the values" if baseline.get("experiment") in VALUE_EXPERIMENTS
            else "the shape")
    print(f"check_bench_baseline: {sys.argv[2]} matches {what} of "
          f"{sys.argv[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
