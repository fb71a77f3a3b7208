"""Euclidean projection of an update direction onto gradient half-spaces.

The continual step direction w solves

    min_w 1/2 ||w - g||^2   s.t.  <c_i, w> >= 0 for each constraint row c_i,

where g is the raw update gradient and the c_i are reference-loss gradients:
the source batch and one memory constraint per earlier target domain, so a
step may not raise the loss of any old domain even when the others fall.
Stationarity gives w = g + sum_i u_i c_i with multipliers u >= 0, so inactive
constraints leave g untouched and active ones add just enough of the
constraint gradient to zero the violated slack.

The step's gradients arrive as the rows of one matrix J, g first.  gram
forms K = J J^T once, with the step's tolerance; project is the one solver,
for any number of rows: Lawson-Hanson on the non-negative dual, the QP that
GEM also solves (Lopez-Paz & Ranzato 2017), which lives on K.  It accepts
its answer only if kkt_check, judging the stepped w itself with the solver's
product u C, sets every flag of KKT_FLAGS.
"""

import math

import numpy as np

from .errors import ContractViolationError, DimensionError, NumericError

EPS_SCALE = 1e-9
KKT_FLAGS = ("primal_feasible", "dual_feasible", "complementary", "stationary")


def kkt_check(w, u, g, constraints, eps, uC) -> dict:
    """Boolean KKT diagnostics plus the slacks C w they were judged on, for
    w stepped from g by uC, the product u C of the multipliers and the
    constraint rows."""
    u = np.asarray(u, dtype=np.float64)
    C = np.asarray(constraints, dtype=np.float64).reshape(u.size, len(w))
    slacks = C @ w
    r = w - g - uC
    return {
        "primal_feasible": bool(slacks.min(initial=np.inf) >= -eps),
        "dual_feasible": bool(u.min(initial=np.inf) >= -eps),
        "complementary": bool((np.abs(u * slacks)
                               <= eps * np.maximum(1.0, np.abs(u))).all()),
        "stationary": bool(math.sqrt(r.dot(r)) <= eps),
        "slacks": slacks,
    }


def gram(J):
    """Gram matrix K = J J^T of stacked gradient rows and the feasibility
    tolerance scaled to the largest row norm, sqrt(max diag K).

    A NaN or Inf in J shows in K, which raises NumericError and no
    floating-point warning; J must be a 2-D stack of at least one row
    (DimensionError).
    """
    J = np.asarray(J, dtype=np.float64)
    if J.ndim != 2 or J.shape[0] == 0:
        raise DimensionError(f"gradient stack has shape {J.shape}")
    # one matrix-vector product per row: BLAS runs J @ J.T at half the speed
    with np.errstate(invalid="ignore", over="ignore"):
        K = np.array([J @ row for row in J])
    if not np.isfinite(K).all():
        raise NumericError("gradient Gram matrix contains NaN or Inf")
    return K, EPS_SCALE * max(1.0, math.sqrt(K.diagonal().max()))


def project(J, K, eps):
    """(w, u, slacks): J[0] projected onto the half-spaces of the constraint
    rows J[1:], w = J[0] + u J[1:], with the slacks J[1:] w of its KKT check.

    The rows enter only through the Gram matrix K = J J^T from gram: the
    dual reads G = K[1:, 1:] and b = K[1:, 0], multipliers u give the
    slacks b + G u without any length-P work, and only the chosen u is
    mapped back to w = J[0] + u J[1:].  The multipliers solve the
    non-negative dual by Lawson-Hanson, one code path for every row count.
    Zero rows are vacuous and keep a zero multiplier.  An answer that fails
    any KKT flag raises ContractViolationError rather than becoming a step.
    """
    J = np.asarray(J, dtype=np.float64)
    if J.ndim != 2 or np.shape(K) != (J.shape[0], J.shape[0]):
        raise DimensionError(f"Gram matrix of shape {np.shape(K)} for a "
                             f"gradient stack of shape {J.shape}")
    u = _nnls(K[1:, 1:], K[1:, 0], eps)
    uC = u @ J[1:]
    w = J[0] + uC
    diag = kkt_check(w, u, J[0], J[1:], eps, uC)
    if not all(diag[k] for k in KKT_FLAGS):
        raise ContractViolationError(
            f"projection failed KKT diagnostics: {diag}")
    return w, u, diag["slacks"]


def _nnls(G, b, eps):
    """Lawson-Hanson for min over u >= 0 of u^T G u / 2 + b^T u.

    Each outer step moves the row with the most violated slack b + G u into
    the passive set P and solves G_PP u_P = -b_P; while a passive multiplier
    comes out <= 0 it steps back toward the previous u until one reaches
    zero and leaves P.  It stops once every slack is >= -eps.  A row that
    enters has nonzero slack while every passive row has zero slack, so it
    is independent of P and G_PP stays regular; zero rows have slack 0 and
    never enter.
    """
    m = b.shape[0]
    u = np.zeros(m)
    passive = np.zeros(m, dtype=bool)
    for _ in range(3 * m + 1):
        slack = b + G @ u
        slack[passive] = 0.0
        if slack.min(initial=0.0) >= -eps:
            return u
        passive[np.argmin(slack)] = True
        while True:
            z = np.zeros(m)
            p = np.flatnonzero(passive)
            z[p] = np.linalg.solve(G[p[:, None], p], -b[p])
            if z[p].min() > 0.0:
                break
            bad = np.flatnonzero(passive & (z <= 0.0))
            step = u[bad] / np.maximum(u[bad] - z[bad], np.finfo(float).tiny)
            u = u + step.min() * (z - u)
            u[bad[np.argmin(step)]] = 0.0
            passive &= u > 0.0
        u = z
    raise NumericError("projection multipliers did not converge")
