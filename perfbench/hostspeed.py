"""Host speed, measured by fixed reference kernels between timed operations.

The benchmark runs on a few cores of a shared host whose speed drifts: the
same ``channet simulate`` took 1.3 s in one stretch of a run and 2.4 s in the
next, and a pure-Python loop slowed by the same factor at the same moments.
Host slowdowns of that kind last seconds to minutes, so they cannot be
averaged away inside one run. Instead every timed operation is bracketed by
short reference kernels, and its wall time is scaled by how fast the host ran
them right before and right after it:

    normalised = wall * NOMINAL_S / reference

``reference`` is the summed median time of the kernels in the two brackets and
``NOMINAL_S`` about their median time on the 2-core Xeon host of
``baseline.json``, so a normalised time reads as the wall time that host
takes at its usual speed. The kernels do the kinds of work channet does
-- a Python float loop, ufuncs and small linear algebra on 100-cell arrays,
and a ``solve_ivp`` integration -- and nothing in them calls channet, so a
change to channet moves the normalised time as much as the wall time.

The kernels and ``NOMINAL_S`` are part of the benchmark's definition: change
either and every normalised figure changes with it.
"""

import math
import statistics
import time

NOMINAL_S = 0.012
REPEATS = 3


def _python_loop():
    total = 0.0
    seen = {}
    for i in range(15000):
        x = i * 0.5
        total += math.sqrt(x + 1.0) * 1.0001
        seen[i & 255] = total
    return total


def _small_arrays():
    import numpy as np

    a = np.linspace(1.0, 2.0, 100)
    b = np.ones(100)
    m = np.eye(4) * 3.0 + 0.1
    total = 0.0
    for _ in range(250):
        c = np.sqrt(a * b + 0.5)
        b = np.minimum(c, 2.0) * 0.999 + 0.001
        total += float(c[3]) + float(np.linalg.eigvalsh(m)[0])
    return total


def _ode():
    from scipy.integrate import solve_ivp

    sol = solve_ivp(lambda t, y: [y[1], -y[0] - 0.1 * y[1]], (0.0, 12.0), [1.0, 0.0],
                    rtol=1e-8, atol=1e-10)
    return sol.nfev


KERNELS = (_python_loop, _small_arrays, _ode)


class HostSpeed:
    """Brackets of reference-kernel timings, one taken between each two operations."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock

    def bracket(self):
        """Time every kernel REPEATS times; one list of seconds per kernel."""
        times = [[] for _ in KERNELS]
        for _ in range(REPEATS):
            for k, kernel in enumerate(KERNELS):
                start = self.clock()
                kernel()
                times[k].append(self.clock() - start)
        return times

    @staticmethod
    def factor(before, after):
        """NOMINAL_S over the reference time around one operation.

        The reference time is, summed over the kernels, the median of each
        kernel's timings in the bracket before and the bracket after.
        """
        reference = sum(statistics.median(b + a) for b, a in zip(before, after))
        return NOMINAL_S / reference
