#!/usr/bin/env python3
"""Run a command and report its peak resident set size.

The peak is the child's ru_maxrss from getrusage(RUSAGE_CHILDREN), read
after the command exits, so it covers the command's whole life without
sampling. On Linux ru_maxrss is in KiB.

Usage: python3 tools/peak_rss.py [--max-mb MB] -- command [args...]
Exit status: the command's own non-zero status if it fails (1 if a
signal killed it); otherwise 1 when the peak exceeds --max-mb, and 0.
"""
import argparse
import resource
import subprocess
import sys


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-mb", type=float, default=None,
                        help="fail when the peak RSS exceeds this many MB")
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help="the command to run (after --)")
    args = parser.parse_args()
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        parser.error("no command given")

    status = subprocess.call(command)
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    limit = f" (limit {args.max_mb:.1f} MB)" if args.max_mb is not None else ""
    print(f"peak_rss_mb {peak_mb:.1f}{limit}: {' '.join(command)}",
          file=sys.stderr)
    if status != 0:
        return status if status > 0 else 1  # negative: killed by a signal
    if args.max_mb is not None and peak_mb > args.max_mb:
        print(f"ERROR: peak RSS {peak_mb:.1f} MB exceeds {args.max_mb:.1f} MB",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
