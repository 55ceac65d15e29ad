#!/usr/bin/env python3
"""First-order ellipsoid accuracy across deviation budgets.

Samples boundary points of the predicted parameter ellipsoid, evaluates the
true response-deviation energy, and tabulates |ratio - 1| against eps.  The
residual shrinks linearly in eps; the onset of the linear regime scales with
the fixture's sloppiness (a very sloppy model moves its parameters O(Sm*eps)
far, so eps must be small for the expansion to bite).

Usage: python scripts/ellipsoid_convergence.py [seed ...]
"""

import sys

import numpy as np

from lftident import freqplan, oracle, sloppiness as slop, testing


def run(seed):
    m = testing.random_regular_model(seed, kernel_rich=True)
    t0 = np.zeros(m.dims.q)
    plan = freqplan.search_frequencies(m, t0)
    if plan.status != freqplan.CERTIFIED:
        print(f"seed {seed}: {plan.status}, skipped")
        return
    w = list(plan.selected)
    S = slop.s_matrices(m, t0, w)
    rep = slop.metrics(S)
    print(f"seed {seed}: freqs={['%.3g' % x for x in w]} sm_abs={rep.sm_abs:.3g}")
    prev = None
    for eps in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        stats = oracle.ellipsoid_empirical_check(m, t0, w, eps=eps, samples=8, seed=17)
        dev = max(abs(stats.min_ratio - 1.0), abs(stats.max_ratio - 1.0))
        rate = "" if prev is None else f"  shrink x{prev / dev:6.1f}"
        print(f"  eps={eps:8.0e}  |ratio-1| <= {dev:10.3e}{rate}")
        prev = dev


if __name__ == "__main__":
    seeds = [int(s) for s in sys.argv[1:]] or [0, 22, 24]
    for s in seeds:
        run(s)
