"""Run ``python -m menonsums ARGV...`` with src on the path and bound its peak RSS.

Usage: python .github/peak_rss.py BOUND_MB ARGV...

Prints the run's exit code and peak RSS, read by wait4 so it is the run's own
and starts from this small spawner's.  Exits 1 when the run fails or its peak
exceeds BOUND_MB.
"""

import os
import subprocess
import sys

bound_mb, argv = float(sys.argv[1]), sys.argv[2:]
proc = subprocess.Popen([sys.executable, "-m", "menonsums", *argv], env=dict(os.environ, PYTHONPATH="src"))
_, status, usage = os.wait4(proc.pid, 0)
code = os.waitstatus_to_exitcode(status)
print(f"{' '.join(argv)}: exit {code}, peak RSS {usage.ru_maxrss / 1024:.1f} MB (bound {bound_mb:g} MB)")
sys.exit(1 if code or usage.ru_maxrss > bound_mb * 1024 else 0)
