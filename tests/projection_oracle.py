"""Reference projection for the tests: the minimum-norm step onto the
constraint half-spaces, by brute force over every active set.

gradproject.project solves the same problem on the Gram matrix; the tests
compare its answer with the oracle below.
"""

import itertools

import numpy as np

from contda.gradproject import tolerance


def brute_force_project(g, constraints):
    """Independent oracle: equality-restricted KKT block solves per subset.

    For every subset S it solves  [[I, C_S^T], [C_S, 0]] [w; lam] = [g; 0]
    and keeps the feasible candidate (all slacks >= -eps) with the smallest
    objective.  The unconstrained candidate w = g is always tried.
    """
    g = np.asarray(g, dtype=np.float64)
    C = np.asarray(constraints, dtype=np.float64)
    n, p = C.shape
    eps = tolerance(g, list(C))

    def slack_ok(w):
        return n == 0 or (C @ w).min() >= -eps

    best_obj, best_w = None, None
    if slack_ok(g):
        best_obj, best_w = 0.0, g.copy()
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            Cs = C[list(subset)]
            m = len(subset)
            kkt = np.zeros((p + m, p + m))
            kkt[:p, :p] = np.eye(p)
            kkt[:p, p:] = Cs.T
            kkt[p:, :p] = Cs
            rhs = np.concatenate([g, np.zeros(m)])
            try:
                sol = np.linalg.solve(kkt, rhs)
            except np.linalg.LinAlgError:
                sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
            if np.linalg.norm(kkt @ sol - rhs) > 1e-7 * max(1.0, np.linalg.norm(rhs)):
                continue
            w = sol[:p]
            if not slack_ok(w):
                continue
            obj = 0.5 * float((w - g) @ (w - g))
            if best_obj is None or obj < best_obj:
                best_obj, best_w = obj, w
    return best_w
