"""Set-up probe: interpreter start, `import periodic_hall`, context construction.

    python3 perfbench/setup_probe.py WORKLOAD

Prints the monotonic clock (time.perf_counter) once every context and
algebra of WORKLOAD exists.  run.py starts this script several times and
subtracts the clock reading it took just before each start.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import contexts  # noqa: E402  (imports periodic_hall)

contexts.build(sys.argv[1])
print(time.perf_counter())
