"""Time one set-up in a fresh process and print it in seconds.

    python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR

Set-up is importing zetaforge, loading the bundled catalog and
generating the workload's inputs into WORKDIR.  Only sys, time and
pathlib are imported before the clock starts.
"""

import sys
import time
from pathlib import Path

start = time.perf_counter()
here = Path(__file__).resolve().parent
sys.path.insert(0, str(here.parent / "src"))
import zetaforge  # noqa: E402
import workloads  # noqa: E402

zetaforge.load_catalog()
workloads.build(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]),
                here.parent / "src" / "zetaforge" / "data" / "tilings41.json")
print(time.perf_counter() - start)
