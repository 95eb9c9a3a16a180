#!/usr/bin/env python3
"""Runs a command and fails if its peak resident set exceeds a ceiling.

The command inherits stdin, stdout and stderr, so it drops into a pipeline:

    python3 tools/soak_stream.py --sessions 100000 --phase reference \\
      | python3 tools/peak_rss.py --max-mb 300 -- ./mobsrv_serve > soak-ref.ndjson

The peak (ru_maxrss, the kernel's high-water mark) comes from os.wait4, as
perfbench's reap() takes it, and is printed to stderr. Exit status: the
command's own if it failed, 1 if it exceeded --max-mb, else 0.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-mb", type=float, required=True,
                        help="fail when the command's peak RSS is above this many MiB")
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help="the command to run, after --")
    args = parser.parse_args()
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        parser.error("no command given (put it after --)")

    proc = subprocess.Popen(command)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    peak_mb = usage.ru_maxrss / 1024.0  # Linux reports KiB
    print(f"peak_rss: {peak_mb:.1f} MB (ceiling {args.max_mb:g} MB): {command[0]}",
          file=sys.stderr)
    if proc.returncode != 0:  # a signal -N reads as the shell's 128 + N
        return proc.returncode if proc.returncode > 0 else 128 - proc.returncode
    if peak_mb > args.max_mb:
        print(f"peak_rss: {command[0]} exceeded the {args.max_mb:g} MB ceiling",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
