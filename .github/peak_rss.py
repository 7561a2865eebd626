"""Run a command and fail when its peak resident set exceeds a bound.

    python .github/peak_rss.py MAX_MB COMMAND [ARG...]

The command's stdout and stderr pass through; the peak, the largest
resident set of the waited-for child (`getrusage(RUSAGE_CHILDREN)`, in
MB of 2^20 bytes), goes to stderr.  The exit status is the command's own
when that is nonzero, else 1 when the peak is above MAX_MB, else 0.
"""

import resource
import subprocess
import sys


def main(argv):
    limit = float(argv[0])
    code = subprocess.run(argv[1:]).returncode
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"peak RSS {peak:.0f} MB (limit {limit:.0f} MB)", file=sys.stderr)
    if code:
        return code
    return 1 if peak > limit else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
