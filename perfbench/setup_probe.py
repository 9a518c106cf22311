"""Print the seconds a fresh interpreter takes to set up one workload
(``import udnsync`` plus building and validating the workload's config
and spec), then the part of them spent importing numpy.

numpy is udnsync's first and largest import. It is imported first here
and timed on its own, so that ``run.py`` can calibrate the set-up time
by it (see ``calibration.py``). Run by ``run.py``; usage:
``python3 setup_probe.py WORKLOAD``."""

import sys
from time import perf_counter

start = perf_counter()
import numpy  # noqa: E402,F401

numpy_seconds = perf_counter() - start
import source  # noqa: E402

source.use_source_tree()
import workloads  # noqa: E402

workloads.template_spec(workloads.WORKLOADS[sys.argv[1]])
print(perf_counter() - start, numpy_seconds)
