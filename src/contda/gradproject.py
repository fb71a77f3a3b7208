"""Euclidean projection of an update direction onto gradient half-spaces.

The continual step direction w solves

    min_w 1/2 ||w - g||^2   s.t.  <c_i, w> >= 0 for each constraint row c_i,

where g is the raw update gradient and the c_i are reference-loss gradients:
the source batch and one memory constraint per earlier target domain, so a
step may not raise the loss of any old domain even when the others fall.
Stationarity gives w = g + sum_i u_i c_i with multipliers u >= 0, so inactive
constraints leave g untouched and active ones add just enough of the
constraint gradient to zero the violated slack.

project_n is the one solver, for any number of rows: it enumerates active
sets on the small Gram matrix of the rows (projected dual ascent above eight
rows).  kkt_check judges a solution, and brute_force_project is an
independent oracle for the tests.
"""

import functools
import itertools

import numpy as np

from .errors import DimensionError, NumericError
from .numerics import require_finite

EPS_SCALE = 1e-9
KKT_FLAGS = ("primal_feasible", "dual_feasible", "complementary", "stationary")


def tolerance(g, constraints) -> float:
    """Feasibility tolerance scaled to the largest gradient magnitude."""
    norms = [np.linalg.norm(g)] + [np.linalg.norm(c) for c in constraints]
    return EPS_SCALE * max(1.0, *norms)


def kkt_check(w, u, g, constraints, eps) -> dict:
    """Boolean KKT diagnostics plus the residuals they were judged on."""
    slacks = np.array([c @ w for c in constraints])
    stat = w - g
    for ui, c in zip(u, constraints):
        stat = stat - ui * c
    comp = np.array([abs(ui * si) for ui, si in zip(u, slacks)])
    comp_tol = np.array([eps * max(1.0, abs(ui)) for ui in u])
    return {
        "primal_feasible": bool(slacks.size == 0 or slacks.min() >= -eps),
        "dual_feasible": bool(u.size == 0 or u.min() >= -eps),
        "complementary": bool(comp.size == 0 or np.all(comp <= comp_tol)),
        "stationary": bool(np.linalg.norm(stat) <= eps),
        "slacks": slacks,
        "stationarity_residual": float(np.linalg.norm(stat)),
    }


_SUBSET_LIMIT = 8


def project_n(g, constraints):
    """Projection under n half-space constraints; returns (w, u).

    The rows enter only through the n x n Gram matrix C C^T and the products
    C g, both formed once: multipliers u give the slacks C g + C C^T u and
    the objective u^T C C^T u / 2 without any length-P work, and only the
    chosen u is mapped back to w = g + C^T u.  Small n enumerates active
    subsets on these matrices; larger n runs projected gradient ascent on
    the dual (Lipschitz step from the Gram spectrum).  Zero rows are vacuous
    and keep a zero multiplier.  Mismatched shapes raise DimensionError and
    NaN or Inf entries raise NumericError.
    """
    g = np.asarray(g, dtype=np.float64)
    C = np.asarray(constraints, dtype=np.float64)
    if g.ndim != 1:
        raise DimensionError(f"update gradient has shape {g.shape}")
    if C.ndim != 2 or C.shape[1] != g.shape[0]:
        raise DimensionError(f"constraint matrix has shape {C.shape}")
    require_finite(g, "update gradient")
    require_finite(C, "constraint gradients")
    gram = C @ C.T
    live = np.flatnonzero(np.diag(gram) > 0.0)
    eps = tolerance(g, C)
    G = gram[np.ix_(live, live)]
    b = (C @ g)[live]
    u = np.zeros(C.shape[0])
    if len(live) <= _SUBSET_LIMIT:
        u[live] = _enumerate_active_sets(G, b, eps)
    else:
        u[live] = _dual_ascent(G, b)
    return g + u @ C, u


@functools.lru_cache(maxsize=_SUBSET_LIMIT + 1)
def _subsets(m):
    """Index arrays of every non-empty subset of range(m), one per size."""
    return [np.array(list(itertools.combinations(range(m), k)), dtype=np.int64)
            for k in range(1, m + 1)]


def _enumerate_active_sets(G, b, eps):
    """Least-objective feasible multipliers over all active subsets.

    u = 0 is taken when g is already feasible.  Otherwise every subset's
    equality system G_SS u_S = -b_S is solved in one batched call per subset
    size; candidates are the clipped solutions that pass a residual check,
    and ties within eps^2 go to the smaller subset.
    """
    m = b.shape[0]
    if np.all(b >= -eps):
        return np.zeros(m)
    cands = []
    for idx in _subsets(m):
        rows = np.arange(idx.shape[0])[:, None]
        u_sub = _solve_gram(G[idx[:, :, None], idx[:, None, :]], -b[idx])
        u = np.zeros((idx.shape[0], m))
        u[rows, idx] = np.maximum(u_sub, 0.0)
        cands.append(u)
    U = np.concatenate(cands)
    GU = U @ G
    feasible = (b + GU).min(axis=1, initial=np.inf) >= -eps  # NaN rows fail
    if not feasible.any():
        raise NumericError("no active set gives a feasible projection")
    obj = np.where(feasible, 0.5 * np.einsum("ij,ij->i", GU, U), np.inf)
    return U[np.argmax(obj <= obj.min() + eps * eps)]


def _solve_gram(G, rhs):
    """Batched solutions of G u = rhs; NaN rows where G is singular or the
    solve fails its residual check."""
    try:
        u = np.linalg.solve(G, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        u = (np.linalg.pinv(G) @ rhs[..., None])[..., 0]
    resid = np.linalg.norm((G @ u[..., None])[..., 0] - rhs, axis=1)
    bad = ~(resid <= 1e-8 * np.maximum(1.0, np.linalg.norm(rhs, axis=1)))
    u[bad] = np.nan
    return u


def _dual_ascent(G, b):
    lam_max = float(np.linalg.eigvalsh(G)[-1])
    step = 1.0 / max(lam_max, 1e-30)
    u = np.zeros(b.shape[0])
    for _ in range(200000):
        u_new = np.maximum(u - step * (G @ u + b), 0.0)
        if np.linalg.norm(u_new - u) <= 1e-12 * max(1.0, np.linalg.norm(u)):
            return u_new
        u = u_new
    return u


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
