"""Transport-cost vs. Fisher-information toolkit for finite Markov models.

Each public name lives in one module and is imported from there, e.g.
``from transinfo.chains import build_chain`` (README, "Layout").

Importing the package sets OPENBLAS_NUM_THREADS=1 unless the caller has set
it.  A process that loaded numpy first keeps numpy's thread pool, and child
processes started afterwards inherit the variable (README, "Threads").
"""

import os

# Must run before numpy loads.  The bundled models' BLAS calls are small, and
# an idle OpenBLAS worker spins after each; a caller's own value wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
