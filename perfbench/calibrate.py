"""A fixed SciPy kernel that measures how fast the host runs right now.

The host this benchmark was built on is shared, and its speed drifts by a
factor of up to two over minutes, the same way for every workload; a 30 s
run cannot average that out.  Each untraced run therefore times this kernel
right after its workload, and the end-to-end times are reported at the
reference speed:

    reported = measured * REFERENCE_KERNEL_S / kernel time of the same run

The kernel uses no beamstab code, so a change to beamstab does not move it.
It factors and solves a 2D Laplacian on 25 600 unknowns.  Of the kernels
tried (this one, 4 096-unknown solves, a loop of 400-unknown solves, and
their sums), it tracked the drift of all four workloads best: it cut the
run-to-run variation of a single run's wall time from 14-20 % to 9-13 %.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

# The kernel's time at the reference speed: its median on the host the
# baseline was measured on (2-core Intel Xeon VM, Python 3.11, NumPy 2.4,
# SciPy 1.17, threads pinned to 1).  Fixed for good: changing it rescales
# every reported time.
REFERENCE_KERNEL_S = 0.16


def kernel_seconds():
    start = perf_counter()
    n = 160
    eye = sp.identity(n, dtype=float)
    lap1 = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    A = (sp.kron(eye, lap1) + sp.kron(lap1, eye) + 0.1 * sp.identity(n * n)).tocsc()
    lu = splu(A)
    x = np.ones(n * n)
    for _ in range(10):
        x = lu.solve(x)
        x /= np.linalg.norm(x)
    return perf_counter() - start
