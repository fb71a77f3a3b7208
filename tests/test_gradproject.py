import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contda import gradproject as gp
from contda import harness
from contda.errors import DimensionError, NumericError
from projection_oracle import brute_force_project, tolerance


def rand_instance(rng, p=None, force_violation=None):
    """Random (g, c0, c1); force_violation picks which constraints g violates."""
    p = p or int(rng.integers(3, 20))
    g = rng.standard_normal(p) * rng.uniform(0.5, 3.0)
    cons = []
    for i in range(2):
        c = rng.standard_normal(p) * rng.uniform(0.2, 2.0)
        if force_violation is not None:
            want = i in force_violation
            if (g @ c < 0.0) != want:
                c = -c
        cons.append(c)
    return g, cons[0], cons[1]


def project_rows(g, C):
    """Projection of g onto the half-spaces of the rows of C, as a step
    takes it: g and C stacked into one matrix J, its Gram matrix formed
    once."""
    J = np.vstack([g, np.reshape(C, (-1, np.size(g)))])
    w, u, uC = gp.project(J, *gp.gram(J))
    # the product handed on is the one the step took
    np.testing.assert_array_equal(uC, u @ J[1:])
    np.testing.assert_array_equal(w, J[0] + uC)
    return w, u


def objective(w, g):
    return 0.5 * float((w - g) @ (w - g))


def kkt(w, u, g, C, eps):
    """kkt_check of w against its own product u C."""
    return gp.kkt_check(w, u, g, C, eps, np.asarray(u) @ np.asarray(C))


def kkt_ok(w, u, g, C):
    rows = list(C)
    diag = kkt(w, u, g, rows, tolerance(g, rows))
    return all(diag[k] for k in gp.KKT_FLAGS)


def test_interior_case_returns_g_unchanged():
    rng = np.random.default_rng(0)
    for _ in range(50):
        g, c0, c1 = rand_instance(rng, force_violation=())
        w, u = project_rows(g, [c0, c1])
        assert w.tobytes() == g.tobytes()
        np.testing.assert_array_equal(u, np.zeros(2))
        assert objective(w, g) == 0.0
        assert kkt_ok(w, u, g, [c0, c1])


def test_single_active_closed_form():
    rng = np.random.default_rng(1)
    for _ in range(50):
        g, c0, _ = rand_instance(rng, force_violation=(0,))
        w, u = project_rows(g, [c0])
        u1 = -(g @ c0) / (c0 @ c0)
        np.testing.assert_allclose(u, [u1], rtol=1e-12)
        np.testing.assert_allclose(w, g + u1 * c0, rtol=1e-12)
        # active constraint lands exactly on its boundary
        assert abs(w @ c0) <= 1e-9 * max(1.0, np.linalg.norm(c0))
        assert kkt_ok(w, u, g, [c0])


def test_hand_example_orthogonal_constraints():
    g = np.array([-1.0, -2.0, 3.0])
    c0 = np.array([1.0, 0.0, 0.0])
    c1 = np.array([0.0, 1.0, 0.0])
    w, u = project_rows(g, [c0, c1])
    np.testing.assert_allclose(w, [0.0, 0.0, 3.0], atol=1e-12)
    np.testing.assert_allclose(u, [1.0, 2.0], atol=1e-12)
    np.testing.assert_allclose(objective(w, g), 0.5 * (1 + 4), atol=1e-12)


def test_hand_example_correlated_constraints():
    # Gram [[2, 1], [1, 2]], rhs -(Cg) solved by hand: u = (1, 2)
    c0 = np.array([1.0, 1.0, 0.0, 0.0])
    c1 = np.array([0.0, 1.0, 1.0, 0.0])
    # choose g with C g = (-4, -5) -> u = G^{-1} (4,5) = (1, 2)
    g = np.array([-1.0, -3.0, -2.0, 7.0])
    w, u = project_rows(g, [c0, c1])
    np.testing.assert_allclose(u, [1.0, 2.0], atol=1e-10)
    np.testing.assert_allclose(w, g + c0 + 2 * c1, atol=1e-10)


def test_one_violated_one_slack_keeps_single_multiplier():
    # crafted so fixing constraint 0 leaves constraint 1 satisfied
    g = np.array([-2.0, 5.0, 0.0])
    c0 = np.array([1.0, 0.0, 0.0])
    c1 = np.array([0.0, 1.0, 0.0])
    w, u = project_rows(g, [c0, c1])
    np.testing.assert_allclose(w, [0.0, 5.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(u, [2.0, 0.0], atol=1e-12)
    assert u[1] == 0.0


def test_memory_only_active_case_name():
    g = np.array([3.0, -2.0])
    c0 = np.array([1.0, 0.0])
    c1 = np.array([0.0, 1.0])
    w, u = project_rows(g, [c0, c1])
    np.testing.assert_allclose(u, [0.0, 2.0], atol=1e-12)
    assert u[0] == 0.0
    J = np.stack([g, c0, c1])
    assert harness.project_step(J, *gp.gram(J))[2] == "memory-active"


def test_missing_memory_constraint_is_vacuous():
    rng = np.random.default_rng(2)
    for _ in range(20):
        g, c0, _ = rand_instance(rng, force_violation=(0, 1))
        wa, ua = project_rows(g, [c0])
        wb, ub = project_rows(g, [c0, np.zeros_like(g)])
        np.testing.assert_allclose(wa, wb, atol=1e-12)
        assert ub[1] == 0.0 and ub.shape == (2,)


def test_both_constraints_zero_means_interior():
    g = np.array([1.0, -2.0])
    w, u = project_rows(g, [np.zeros(2), np.zeros(2)])
    np.testing.assert_array_equal(w, g)
    np.testing.assert_array_equal(u, np.zeros(2))
    assert kkt_ok(w, u, g, [np.zeros(2), np.zeros(2)])


def test_zero_update_gradient():
    g = np.zeros(4)
    C = [np.array([1.0, 0, 0, 0]), np.array([0, 1.0, 0, 0])]
    w, u = project_rows(g, C)
    np.testing.assert_array_equal(w, np.zeros(4))
    assert kkt_ok(w, u, g, C)


def test_constraint_scaling_leaves_projection_invariant():
    rng = np.random.default_rng(3)
    for _ in range(30):
        g, c0, c1 = rand_instance(rng, force_violation=(0, 1))
        wa, _ = project_rows(g, [c0, c1])
        wb, _ = project_rows(g, [10.0 * c0, 0.1 * c1])
        np.testing.assert_allclose(wa, wb, atol=1e-8 * max(1, np.linalg.norm(g)))


def test_parallel_constraints_handled():
    g = np.array([-1.0, 2.0, 0.5])
    c = np.array([2.0, 1.0, 0.0])
    C = [c, 3.0 * c]
    w, u = project_rows(g, C)
    assert (np.stack(C) @ w).min() >= -tolerance(g, C)
    assert kkt_ok(w, u, g, C)


def test_antiparallel_constraints_force_hyperplane():
    # feasible set is the hyperplane <c, w> = 0; solution is the projection
    g = np.array([1.0, 1.0, 0.0])
    c = np.array([1.0, 0.0, 0.0])
    w, u = project_rows(g, [c, -c])
    np.testing.assert_allclose(w, [0.0, 1.0, 0.0], atol=1e-6)
    assert kkt_ok(w, u, g, [c, -c])


def test_matches_brute_force_oracle():
    rng = np.random.default_rng(4)
    patterns = [(), (0,), (1,), (0, 1)]
    for trial in range(200):
        g, c0, c1 = rand_instance(rng, force_violation=patterns[trial % 4])
        w, u = project_rows(g, [c0, c1])
        w_oracle = brute_force_project(g, np.stack([c0, c1]))
        obj, obj_oracle = objective(w, g), objective(w_oracle, g)
        assert obj <= obj_oracle + 1e-8
        assert abs(obj - obj_oracle) <= 1e-8
        np.testing.assert_allclose(w, w_oracle, atol=1e-6)
        assert kkt_ok(w, u, g, [c0, c1])


def test_kkt_check_flags_fabricated_failures():
    g = np.array([-1.0, 0.0])
    c = np.array([1.0, 0.0])
    cons = [c, np.zeros(2)]
    eps = tolerance(g, cons)
    good = kkt(np.array([0.0, 0.0]), np.array([1.0, 0.0]), g, cons, eps)
    assert all(good[k] for k in ("primal_feasible", "dual_feasible",
                                 "complementary", "stationary"))
    # raw g violates primal feasibility
    bad1 = kkt(g, np.zeros(2), g, cons, eps)
    assert not bad1["primal_feasible"]
    # negative multiplier violates dual feasibility
    bad2 = kkt(np.array([1.0, 0.0]), np.array([-2.0, 0.0]), g, cons, eps)
    assert not bad2["dual_feasible"]
    # positive multiplier on a slack constraint breaks complementarity
    bad3 = kkt(np.array([1.0, 0.0]), np.array([2.0, 0.0]), g, cons, eps)
    assert not bad3["complementary"]
    # w unrelated to g + u c breaks stationarity
    bad4 = kkt(np.array([5.0, 5.0]), np.array([1.0, 0.0]), g, cons, eps)
    assert not bad4["stationary"]
    # so does a product u C that w was not stepped by
    bad5 = gp.kkt_check(np.array([0.0, 0.0]), np.array([1.0, 0.0]), g, cons,
                        eps, np.zeros(2))
    assert not bad5["stationary"]
    np.testing.assert_array_equal(bad5["slacks"], good["slacks"])


def test_tolerance_scales_with_largest_norm():
    g = np.ones(4) * 1000.0
    eps = tolerance(g, [np.ones(4)])
    np.testing.assert_allclose(eps, 1e-9 * np.linalg.norm(g))
    assert tolerance(np.zeros(3), [np.zeros(3)]) == 1e-9


@pytest.mark.filterwarnings("error")
def test_gradient_set_validation():
    # the stacked gradients handed to gram are checked as one set: a 2-D
    # stack of at least one row, all finite
    with pytest.raises(DimensionError):
        gp.gram(np.zeros(4))
    with pytest.raises(DimensionError):
        gp.gram(np.zeros((0, 4)))
    with pytest.raises(NumericError):
        gp.gram(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(NumericError):
        gp.gram(np.array([[0.0, 0.0], [1.0, np.inf]]))


def test_project_n_matches_brute_force_small():
    # one solver path for every row count, 1 to 10 rows
    rng = np.random.default_rng(5)
    for _ in range(60):
        p = int(rng.integers(3, 12))
        n = int(rng.integers(1, 11))
        g = rng.standard_normal(p)
        C = rng.standard_normal((n, p))
        w, u = project_rows(g, C)
        w_oracle = brute_force_project(g, C)
        obj = 0.5 * float((w - g) @ (w - g))
        obj_oracle = 0.5 * float((w_oracle - g) @ (w_oracle - g))
        assert abs(obj - obj_oracle) <= 1e-7 * max(1.0, obj_oracle)
        eps = tolerance(g, list(C))
        assert (C @ w).min() >= -eps
        assert u.min() >= 0.0


def test_project_n_rejects_bad_shapes():
    J = np.zeros((3, 4))
    K, eps = gp.gram(J)
    with pytest.raises(DimensionError):
        gp.project(J, K[:2, :2], eps)
    with pytest.raises(DimensionError):
        gp.project(J[0], K, eps)


def test_gram_tolerance_matches_row_norms():
    # the step's tolerance read from diag K is the one the oracle's
    # tolerance() takes from the rows' norms
    rng = np.random.default_rng(8)
    for _ in range(20):
        J = rng.standard_normal((int(rng.integers(1, 6)), 30))
        J *= rng.uniform(0.01, 1e3)
        K, eps = gp.gram(J)
        np.testing.assert_allclose(K, J @ J.T, rtol=1e-12)
        np.testing.assert_allclose(eps, tolerance(J[0], J[1:]), rtol=1e-12)
    assert gp.gram(np.zeros((2, 3)))[1] == gp.EPS_SCALE


def test_project_n_handles_degenerate_rows():
    # parallel, antiparallel, zero and linearly dependent rows make some
    # active-set Gram blocks singular; the projection still matches the
    # oracle and passes every KKT check
    rng = np.random.default_rng(7)
    for trial in range(200):
        p = int(rng.integers(3, 10))
        g = rng.standard_normal(p)
        C = rng.standard_normal((4, p))
        kind = trial % 4
        if kind == 0:
            C[1] = 3.0 * C[0]
        elif kind == 1:
            C[1] = -C[0]
        elif kind == 2:
            C[2] = 0.0
        else:
            C[3] = C[0] + C[1]
        w, u = project_rows(g, C)
        eps = tolerance(g, list(C))
        diag = kkt(w, u, g, C, eps)
        assert all(diag[k] for k in ("primal_feasible", "dual_feasible",
                                     "complementary", "stationary")), diag
        w_oracle = brute_force_project(g, C)
        obj = 0.5 * float((w - g) @ (w - g))
        obj_oracle = 0.5 * float((w_oracle - g) @ (w_oracle - g))
        assert abs(obj - obj_oracle) <= 1e-7 * max(1.0, obj_oracle)
        if kind == 2:
            assert u[2] == 0.0


ROW_KINDS = ("random", "parallel", "antiparallel", "zero", "dependent")


@st.composite
def projection_instances(draw):
    """(g, C) with 1-6 rows of length 3-12; rows after the first are random
    or a parallel, antiparallel, zero or dependent copy of earlier rows."""
    p = draw(st.integers(3, 12))
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = rng.standard_normal(p) * draw(st.floats(0.1, 10.0))
    C = rng.standard_normal((n, p))
    for k in range(1, n):
        kind = draw(st.sampled_from(ROW_KINDS))
        i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
        scale = draw(st.floats(0.1, 10.0))
        if kind == "parallel":
            C[k] = scale * C[i]
        elif kind == "antiparallel":
            C[k] = -scale * C[i]
        elif kind == "zero":
            C[k] = 0.0
        elif kind == "dependent":
            C[k] = C[i] + scale * C[j]
    return g, C


@settings(derandomize=True, deadline=None)
@given(projection_instances())
def test_project_n_property_against_oracle(instance):
    g, C = instance
    w, u = project_rows(g, C)
    assert kkt_ok(w, u, g, C)
    obj, obj_oracle = objective(w, g), objective(brute_force_project(g, C), g)
    assert abs(obj - obj_oracle) <= 1e-7 * max(1.0, obj)
