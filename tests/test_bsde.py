"""Projection step, implicit solve and the unreflected backward sweep."""

import numpy as np
import pytest

import rbsde.fixpoint
import rbsde.penalty
import rbsde.reflected
from rbsde import (BarrierSpec, DriverSpec, MarkSet, StepsizeTooLarge, TerminalSpec,
                   build_tree, picard_solve, solve_bsde, solve_penalized, solve_reflected)
from rbsde.bsde import check_stepsize, project_level
from rbsde.processes import linear_payoff
from conftest import random_marks, random_step_driver


def test_project_constant():
    tree = build_tree(2, MarkSet(sizes=(1.0,), intensities=(0.5,)))
    z, v, resid = project_level(tree, np.full(tree.branching, 7.0))
    assert z[0] == pytest.approx(0.0, abs=1e-14)
    assert v[0] == pytest.approx([0.0], abs=1e-14)
    assert resid[0] == pytest.approx(0.0, abs=1e-14)


def test_project_brownian_increment_no_marks():
    tree = build_tree(4)
    db = tree.branch_db
    z, v, resid = project_level(tree, db)
    assert z[0] == pytest.approx(1.0, abs=1e-14)
    assert v[0].size == 0
    assert resid[0] <= 1e-14


def test_project_compensated_jump():
    marks = MarkSet(sizes=(1.0,), intensities=(0.6,))
    tree = build_tree(3, marks)
    lam_dt = 0.6 * tree.dt
    z, v, resid = project_level(tree, tree.branch_comp[:, 0])
    assert z[0] == pytest.approx(0.0, abs=1e-14)
    # E[mu~^2]/(lam dt) = 1 - lam dt at finite step size
    assert v[0, 0] == pytest.approx(1.0 - lam_dt, abs=1e-13)
    expected_resid = np.sqrt((lam_dt ** 2) * lam_dt * (1 - lam_dt))
    assert resid[0] == pytest.approx(expected_resid, rel=1e-10)


def _root_step(driver, children) -> float:
    """Y_0 of a one-step tree whose leaves hold ``children``: one backward step."""
    return float(solve_bsde(build_tree(1), driver, np.asarray(children, dtype=float)).y[0][0])


def test_backward_step_zero_driver():
    assert _root_step(DriverSpec(), [2.0, 4.0]) == pytest.approx(3.0)


def test_backward_step_linear_closed_form():
    # y = E + a*y*dt with E = 2, a = 1/4, dt = 1 gives y = 8/3
    y = _root_step(DriverSpec(a=0.25), [2.0, 2.0])
    assert y == pytest.approx(8.0 / 3.0, abs=1e-14)
    assert y == pytest.approx(2.0 + y * 0.25)  # residual substitution


def test_backward_step_penalty_kink():
    # y = E + n*dt*(S - y)^+ with E = 0.5, S = 1, n = 1, dt = 1 gives y = 3/4
    barrier = BarrierSpec(pieces=((0.0, 1.0),))

    def root_step(children):
        return solve_penalized(build_tree(1), DriverSpec(), barrier,
                               np.asarray(children, dtype=float), 1.0)

    below = root_step([0.5, 0.5])
    y = float(below.solution.y[0][0])
    assert y == pytest.approx(0.75, abs=1e-14)
    assert y == pytest.approx(0.5 + 1.0 * (1.0 - y))  # substitution
    assert below.kn[1][0] == pytest.approx(1.0 - y, abs=1e-14)  # flux n*dt*(S - y)^+
    # above the obstacle the penalty is inactive
    above = root_step([1.5, 2.5])
    assert float(above.solution.y[0][0]) == pytest.approx(2.0)
    assert above.kn[1][0] == 0.0


def test_stepsize_guard():
    tree = build_tree(1)
    with pytest.raises(StepsizeTooLarge):
        solve_bsde(tree, DriverSpec(a=1.0), TerminalSpec(constant=0.0))

    class NanDriver:   # DriverSpec rejects a NaN coefficient; the guard reads any driver
        a, b, c = float("nan"), 0.0, 0.0

    with pytest.raises(StepsizeTooLarge):  # NaN fails the guard too
        check_stepsize(NanDriver(), tree)


@pytest.mark.parametrize("field", ["a", "b", "c", "base"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_driver_rejects_coefficients_the_guard_cannot_certify(field, value):
    with pytest.raises(ValueError, match="finite"):
        DriverSpec(**{field: value})


def test_driver_v_term_must_weight_the_tree_marks(monkeypatch):
    """A driver is judged on the tree's intensities, whether or not it carries the marks."""
    def no_sweep(*args):
        raise AssertionError("the stepsize is checked before any sweep")

    monkeypatch.setattr(rbsde.reflected, "_backward_sweep", no_sweep)
    monkeypatch.setattr(rbsde.penalty, "_backward_sweep", no_sweep)
    tree = build_tree(2, MarkSet(sizes=(1.0,), intensities=(0.5,)))
    terminal = TerminalSpec(constant=0.0)
    barrier = BarrierSpec(pieces=((0.0, -1.0),))
    # dt*C_f = 0.5 * 4 * sqrt(0.5) >= 1 with or without the marks on the driver
    for driver in (DriverSpec(c=4.0), DriverSpec(c=4.0, marks=tree.marks)):
        with pytest.raises(StepsizeTooLarge):
            solve_reflected(tree, driver, terminal)
        with pytest.raises(StepsizeTooLarge):
            solve_penalized(tree, driver, barrier, terminal, 2.0)
    monkeypatch.undo()
    # below the guard the untied and the tied driver give the same bits and the same alpha
    xi = TerminalSpec(payoff=linear_payoff(0.1, 0.5, (0.4,)))

    def solves(driver):
        direct = solve_reflected(tree, driver, xi, barrier)
        picard, trace = picard_solve(tree, driver, xi)
        levels = [*direct.y, *direct.z, *direct.v, *direct.lower.k, *picard.y, *picard.z,
                  *picard.v]
        return [level.tobytes() for level in levels], trace.alpha

    assert solves(DriverSpec(c=0.2)) == solves(DriverSpec(c=0.2, marks=tree.marks))
    # nor do a driver's own marks matter on a tree without marks
    solve_bsde(build_tree(2), DriverSpec(a=0.5, c=4.0, marks=tree.marks), terminal)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_a_base_that_is_not_finite_raises_before_a_sweep_finishes(monkeypatch, value):
    finished = []
    sweep = rbsde.reflected._reflected_sweep

    def counting(*args, **kwargs):
        out = sweep(*args, **kwargs)
        finished.append(args)
        return out

    monkeypatch.setattr(rbsde.reflected, "_reflected_sweep", counting)
    monkeypatch.setattr(rbsde.fixpoint, "_reflected_sweep", counting)
    tree = build_tree(3)
    terminal = TerminalSpec(constant=1.0)
    # the sweep starts at the last level before the horizon, t = 2/3
    with pytest.raises(ValueError, match=r"not finite at t = 0\.666"):
        solve_bsde(tree, DriverSpec(base=lambda t: value), terminal)
    with pytest.raises(ValueError, match=r"not finite at t = 0\.666"):
        picard_solve(tree, DriverSpec(base=lambda t: value, a=0.1), terminal)
    assert finished == []
    # a base that turns non-finite later in time is caught at that time
    late = DriverSpec(base=lambda t: 1.0 if t > 0.5 else value)
    with pytest.raises(ValueError, match=r"not finite at t = 0\.333"):
        solve_bsde(tree, late, terminal)


def test_no_obstacle_is_the_unreflected_solve():
    tree = build_tree(3, MarkSet(sizes=(1.0,), intensities=(0.5,)))
    driver = DriverSpec(base=0.2, a=0.3, b=-0.4, c=0.25, marks=tree.marks)
    terminal = TerminalSpec(payoff=lambda w, c: np.sin(w) + 0.3 * c[:, 0])
    sol = solve_reflected(tree, driver, terminal)
    assert sol.lower is None and sol.upper is None
    assert solve_bsde is solve_reflected
    with pytest.raises(ValueError, match="upper obstacle needs a lower"):
        solve_reflected(tree, driver, terminal, upper=BarrierSpec(pieces=((0.0, 10.0),)))


def test_solve_constant_terminal():
    tree = build_tree(3, MarkSet(sizes=(1.0,), intensities=(0.5,)))
    sol = solve_bsde(tree, DriverSpec(), TerminalSpec(constant=2.5))
    for k in range(4):
        assert np.all(np.abs(sol.y[k] - 2.5) <= 1e-14)
    for k in range(3):
        assert np.max(np.abs(sol.z[k])) <= 1e-13
        assert np.max(np.abs(sol.v[k])) <= 1e-13
    assert sol.lower is None and sol.upper is None


def test_solve_brownian_terminal():
    tree = build_tree(4)
    sol = solve_bsde(tree, DriverSpec(), TerminalSpec(payoff=lambda w, c: w))
    for k in range(5):
        assert np.max(np.abs(sol.y[k] - tree.w[k])) <= 1e-13
    for k in range(4):
        assert np.max(np.abs(sol.z[k] - 1.0)) <= 1e-13
        assert np.max(np.abs(project_level(tree, sol.y[k + 1])[2])) <= 1e-13


def test_solve_compensated_count_terminal():
    marks = MarkSet(sizes=(1.0,), intensities=(0.5,))
    tree = build_tree(4, marks)
    lam_dt = 0.5 * tree.dt
    sol = solve_bsde(tree, DriverSpec(marks=marks),
                     TerminalSpec(payoff=lambda w, c: c[:, 0] - 0.5))
    for k in range(4):
        assert np.max(np.abs(sol.z[k])) <= 1e-13
        # the projection recovers 1 - lam*dt, the continuum value in the limit
        assert np.max(np.abs(sol.v[k] - (1.0 - lam_dt))) <= 1e-13


def test_dynamics_identity_random_driver():
    rng = np.random.default_rng(21)
    marks = random_marks(rng, 2)
    tree = build_tree(4, marks)
    driver = DriverSpec(base=lambda t: 0.3 - t, a=0.4, b=-0.5, c=0.3, marks=marks)
    sol = solve_bsde(tree, driver, TerminalSpec(payoff=lambda w, c: np.tanh(w)))
    lam = marks.intensity_array
    for k in range(tree.num_steps):
        f_val = driver.base_at(tree.time(k)) + driver.a * sol.y[k] \
            + driver.b * sol.z[k]
        if lam.size:
            f_val = f_val + driver.c * (sol.v[k] @ lam)
        rhs = tree.cond_exp(sol.y[k + 1]) + f_val * tree.dt
        assert np.max(np.abs(sol.y[k] - rhs)) <= 1e-12


def test_representation_residual_decays_under_refinement():
    marks = MarkSet(sizes=(1.0,), intensities=(0.5,))

    def smooth(w, c):
        return np.cos(w + 0.7 * c[:, 0])

    def total_residual(num_steps):
        tree = build_tree(num_steps, marks)
        sol = solve_bsde(tree, DriverSpec(marks=marks), TerminalSpec(payoff=smooth))
        return sum(tree.dt * tree.expectation(k, project_level(tree, sol.y[k + 1])[2] ** 2)
                   for k in range(num_steps))

    assert total_residual(6) < total_residual(3)


def test_apriori_bound():
    rng = np.random.default_rng(33)
    for seed in range(5):
        marks = random_marks(rng, 1)
        tree = build_tree(int(rng.integers(4, 7)), marks)
        driver = random_step_driver(rng, tree.num_steps, marks, scale=0.4)
        a, b = rng.uniform(-0.25, 0.25, 2)
        driver = DriverSpec(base=driver.base, a=float(a), b=float(b), marks=marks)
        xi_scale = float(rng.uniform(0.5, 2.0))
        sol = solve_bsde(tree, driver,
                         TerminalSpec(payoff=lambda w, c: xi_scale * np.sin(w)))
        max_g = max(abs(driver.base_at(tree.time(k))) for k in range(tree.num_steps))
        bound = np.exp(driver.lipschitz_constant) * (xi_scale + max_g)
        assert max(float(np.max(np.abs(level))) for level in sol.y) <= bound + 1e-12


def _reference_projection(tree, y_next):
    """Three-term reconstruction: mean + z*dB + v @ comp.T, then the L2 remainder."""
    table = np.asarray(y_next, dtype=float).reshape(-1, tree.branching)
    mean = table @ tree.branch_prob
    z = (table @ (tree.branch_prob * tree.branch_db)) / tree.dt
    if tree.marks.count:
        weights = tree.branch_prob[:, None] * tree.branch_comp
        v = (table @ weights) / (tree.marks.intensity_array * tree.dt)[None, :]
    else:
        v = np.zeros((table.shape[0], 0))
    recon = mean[:, None] + np.outer(z, tree.branch_db) + v @ tree.branch_comp.T
    resid = np.sqrt(np.maximum(((table - recon) ** 2) @ tree.branch_prob, 0.0))
    return z, v, resid


@pytest.mark.parametrize("m", [0, 1, 2])
def test_project_level_matches_three_term_reference(m):
    rng = np.random.default_rng(70 + m)
    marks = MarkSet(sizes=tuple(1.0 + i for i in range(m)),
                    intensities=tuple(rng.uniform(0.2, 0.8, m)))
    tree = build_tree(3, marks)
    for level in range(tree.num_steps):
        y_next = rng.normal(scale=3.0, size=tree.level_size(level + 1))
        z, v, resid = project_level(tree, y_next)
        z_ref, v_ref, resid_ref = _reference_projection(tree, y_next)
        assert np.array_equal(z, z_ref)
        assert np.array_equal(v, v_ref)
        assert resid.shape == resid_ref.shape == (tree.level_size(level),)
        assert np.max(np.abs(resid - resid_ref)) <= 1e-13
