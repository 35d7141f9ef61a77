"""Closed forms of the linear BSDE, derived here and not in the solver.

Driver f = g(t) + a*y + b*z + c*sum_i v_i lam_i and terminal
xi = iota + w*W_T + sum_i kappa_i N_i(T).  One implicit step with
q = 1/(1 - a dt) is Y_k = q (E[Y_{k+1}] + g_k dt + b Z_k dt + c dt
sum_i lam_i V_{k,i}).  Y stays affine in the node state (W_k, N_k): with
r = N - k steps left, Lam = sum_i lam_i and K = sum_i kappa_i lam_i,

    Y_k = q^r (iota + w (W_k + b (1 - t_k)) + sum_i kappa_i N_{k,i}
               + (1 - t_k) K (1 + c - c Lam dt)) + sum_{j=k..N-1} g_j dt q^(j-k+1)
    Z_k = q^(r-1) w
    V_{k,i} = q^(r-1) (kappa_i - dt K)

The tree's one-step moments give these: E[dW] = 0, E[dW^2] = dt, and
mark i fires with probability lam_i dt.  As dt -> 0, Y_0 tends to
e^a (iota + w b + K (1 + c)) + g (e^a - 1)/a for a constant g.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rbsde import DriverSpec, MarkSet, TerminalSpec, build_tree, solve_reflected
from rbsde.processes import linear_payoff

SETTINGS = settings(derandomize=True, max_examples=60, deadline=None)


def _closed_form(tree, a, b, c, g, iota, w, kappa):
    """(Y, Z, V) of the linear BSDE node by node; ``g`` holds g(t_j) for j < N."""
    n, dt = tree.num_steps, tree.dt
    q = 1.0 / (1.0 - a * dt)
    lam = tree.marks.intensity_array
    kappa = np.asarray(kappa, dtype=float)
    total, mass = lam.sum(), kappa @ lam
    y, z, v = [], [], []
    for k, (w_k, counts) in enumerate(tree.states()):
        r, t = n - k, tree.time(k)
        source = sum(g[j] * dt * q ** (j - k + 1) for j in range(k, n))
        y.append(q ** r * (iota + w * (w_k + b * (1.0 - t)) + counts @ kappa
                           + (1.0 - t) * mass * (1.0 + c - c * total * dt)) + source)
        if k < n:
            z.append(np.full(len(w_k), q ** (r - 1) * w))
            v.append(np.tile(q ** (r - 1) * (kappa - dt * mass), (len(w_k), 1)))
    return y, z, v


def _relative_gap(got, want) -> float:
    return max(float(np.max(np.abs(a - b), initial=0.0))
               / max(1.0, float(np.max(np.abs(b), initial=0.0))) for a, b in zip(got, want))


@SETTINGS
@given(st.data())
def test_linear_bsde_matches_its_closed_form_node_by_node(data):
    m = data.draw(st.integers(0, 2))
    n = data.draw(st.integers(1, 6))
    lam = data.draw(st.lists(st.floats(0.05, 0.45), min_size=m, max_size=m))
    marks = MarkSet(sizes=tuple(1.0 + i for i in range(m)), intensities=tuple(lam))
    # |a| + |b| + |c| sqrt(sum lam) < 1 keeps dt C_f below one even at N = 1
    a, b, c = (data.draw(st.floats(-0.3, 0.3)) for _ in range(3))
    iota, w = data.draw(st.floats(-2.0, 2.0)), data.draw(st.floats(-2.0, 2.0))
    kappa = tuple(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=m, max_size=m)))
    # g constant or a step function on the grid
    g = data.draw(st.one_of(st.floats(-2.0, 2.0).map(lambda x: [x] * n),
                            st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)))
    tree = build_tree(n, marks)
    driver = DriverSpec(base=lambda t: g[min(round(t * n), n - 1)], a=a, b=b, c=c,
                        marks=marks)
    sol = solve_reflected(tree, driver, TerminalSpec(payoff=linear_payoff(iota, w, kappa)))
    y, z, v = _closed_form(tree, a, b, c, g, iota, w, kappa)
    assert _relative_gap(sol.y, y) <= 1e-13
    assert _relative_gap(sol.z, z) <= 1e-13
    assert _relative_gap(sol.v, v) <= 1e-13


def test_linear_bsde_converges_to_the_continuous_solution_at_first_order():
    a, b, c, g = 0.1, 0.3, 0.4, 0.05
    marks = MarkSet(sizes=(1.0,), intensities=(0.5,))
    driver = DriverSpec(base=g, a=a, b=b, c=c, marks=marks)
    terminal = TerminalSpec(payoff=linear_payoff(0.0, 1.0, (0.5,)))
    exact = np.exp(a) * (b + 0.25 * (1.0 + c)) + g * (np.exp(a) - 1.0) / a

    def error(n):
        return solve_reflected(build_tree(n, marks), driver, terminal).y[0][0] - exact

    coarse, fine = error(5), error(10)
    assert coarse * 5 == pytest.approx(-0.04887, abs=1e-5)
    assert coarse / fine == pytest.approx(2.0, rel=0.01)
