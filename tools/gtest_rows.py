#!/usr/bin/env python3
"""Run the tests a gtest filter selects, failing when it selects none.

GoogleTest exits 0 when --gtest_filter matches no test, so a row whose
tests were renamed or deleted would pass while running nothing. This
wrapper lists the filter's tests first (--gtest_list_tests) and fails,
naming the filter, when the list is empty; otherwise it runs the binary
with the filter.

Usage: python3 tools/gtest_rows.py BINARY FILTER
Exit status: 1 when the listing fails or selects no test; otherwise the
test run's own non-zero status (1 if a signal killed it), or 0.
"""
import subprocess
import sys


def listed_tests(listing: str) -> int:
    """Tests in --gtest_list_tests output: the indented lines (suite
    names are flush left)."""
    return sum(1 for line in listing.splitlines() if line.startswith("  "))


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    binary, pattern = sys.argv[1:]
    flag = f"--gtest_filter={pattern}"
    listing = subprocess.run([binary, flag, "--gtest_list_tests"],
                             capture_output=True, text=True)
    if listing.returncode != 0:
        sys.stderr.write(listing.stdout + listing.stderr)
        print(f"ERROR: {binary} could not list filter '{pattern}'",
              file=sys.stderr)
        return 1
    count = listed_tests(listing.stdout)
    if count == 0:
        print(f"ERROR: filter '{pattern}' selects no test in {binary}",
              file=sys.stderr)
        return 1
    print(f"{count} tests selected by '{pattern}' in {binary}",
          file=sys.stderr)
    status = subprocess.call([binary, flag])
    return status if status >= 0 else 1


if __name__ == "__main__":
    sys.exit(main())
