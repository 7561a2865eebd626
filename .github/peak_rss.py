"""Run a command and fail when its peak resident set exceeds a bound.

    python .github/peak_rss.py MAX_MB COMMAND [ARG...]

The command's stdout and stderr pass through.  Two peaks go to stderr, in
MB of 2^20 bytes:

- the largest resident set of any one process of the command
  (`getrusage(RUSAGE_CHILDREN)`, which keeps the maximum over the
  command and the children it waited for, not their sum).  MAX_MB bounds
  this figure;
- the summed resident set of the command's process tree, sampled every
  10 ms from `/proc/<pid>/status` (VmRSS) and
  `/proc/<pid>/task/*/children`.  Pages that forked processes still
  share are counted once per process, and a peak shorter than the
  sampling interval can be missed.  It is reported, not bounded.

The exit status is the command's own when that is nonzero, else 1 when
the largest process's peak is above MAX_MB, else 0.
"""

import glob
import resource
import subprocess
import sys
import time


def tree_rss_kb(root):
    """The summed VmRSS, in kB, of root and its descendants now."""
    total, stack = 0, [root]
    while stack:
        pid = stack.pop()
        try:
            with open(f"/proc/{pid}/status") as fh:
                total += next((int(line.split()[1]) for line in fh if line.startswith("VmRSS:")), 0)
            for path in glob.glob(f"/proc/{pid}/task/*/children"):
                with open(path) as fh:
                    stack.extend(int(child) for child in fh.read().split())
        except (FileNotFoundError, ProcessLookupError):  # the process has exited
            continue
    return total


def main(argv):
    limit = float(argv[0])
    proc = subprocess.Popen(argv[1:])
    tree_peak = 0
    while proc.poll() is None:
        tree_peak = max(tree_peak, tree_rss_kb(proc.pid))
        time.sleep(0.01)
    code = proc.returncode
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"peak RSS {peak:.0f} MB (limit {limit:.0f} MB)", file=sys.stderr)
    print(f"peak RSS of the process tree, summed {tree_peak / 1024:.0f} MB (not bounded)", file=sys.stderr)
    if code:
        return code
    return 1 if peak > limit else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
