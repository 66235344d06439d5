"""Prints the seconds a fresh interpreter spends importing mapclean and
constructing an OnlinePipeline. `run.py` starts it several times per run."""

from time import perf_counter

t0 = perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import mapclean  # noqa: E402

mapclean.OnlinePipeline()
print(perf_counter() - t0)
