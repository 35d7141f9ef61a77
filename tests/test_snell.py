"""Envelope computation, Doob-Meyer split, stopping, monotone limits."""

import numpy as np
import pytest

from rbsde import (MarkSet, NotMonotone, TooLargeToEnumerate, build_tree,
                   monotone_limit_check, optimal_stopping_time, regularity_check,
                   snell, sup_diff)
from rbsde.snell import (brute_force_values, enumerate_stopping_values, stop_flags,
                         stopped_envelope_residual)


def martingale_payoff(tree, leaf_values):
    payoff = [None] * (tree.num_steps + 1)
    payoff[-1] = np.asarray(leaf_values, dtype=float)
    for k in range(tree.num_steps - 1, -1, -1):
        payoff[k] = tree.cond_exp(payoff[k + 1])
    return payoff


def random_payoff(tree, rng):
    return [rng.uniform(-1.0, 1.5, tree.level_size(k))
            for k in range(tree.num_steps + 1)]


def test_martingale_is_its_own_envelope():
    tree = build_tree(4, MarkSet(sizes=(1.0,), intensities=(0.5,)))
    rng = np.random.default_rng(0)
    payoff = martingale_payoff(tree, rng.standard_normal(tree.level_size(4)))
    res = snell(tree, payoff)
    assert sup_diff(res.envelope, payoff) <= 1e-13
    assert all(np.max(np.abs(level)) <= 1e-13 for level in res.compensator)


def test_deterministic_decreasing_sequence():
    tree = build_tree(2)
    payoff = [np.full(tree.level_size(k), v) for k, v in enumerate((1.0, 0.6, 0.2))]
    res = snell(tree, payoff)
    assert sup_diff(res.envelope, payoff) == 0.0
    assert np.all(res.increments[0] == pytest.approx(0.4))
    assert np.all(res.increments[1] == pytest.approx(0.4))
    assert np.all(res.compensator[2] == pytest.approx(0.8))


def test_brute_force_single_step_examples():
    tree = build_tree(1)
    continue_wins = [np.array([0.0]), np.array([1.5, 0.5])]  # mean 1
    assert brute_force_values(tree, continue_wins)[0][0] == pytest.approx(1.0)
    stop_wins = [np.array([2.0]), np.array([1.5, 0.5])]
    assert brute_force_values(tree, stop_wins)[0][0] == pytest.approx(2.0)


@pytest.mark.parametrize("seed", range(6))
def test_snell_matches_brute_force_everywhere(seed):
    rng = np.random.default_rng(100 + seed)
    marks = MarkSet(sizes=(1.0,), intensities=(0.6,)) if seed % 2 else MarkSet()
    tree = build_tree(int(rng.integers(2, 7)), marks)
    payoff = random_payoff(tree, rng)
    res = snell(tree, payoff)
    oracle = brute_force_values(tree, payoff)
    assert sup_diff(res.envelope, oracle) <= 1e-12


def test_brute_force_size_guard():
    tree = build_tree(7)
    with pytest.raises(TooLargeToEnumerate):
        brute_force_values(tree, [np.zeros(tree.level_size(k)) for k in range(8)])


def test_enumerated_rules_bounded_by_envelope():
    tree = build_tree(4)
    rng = np.random.default_rng(3)
    payoff = random_payoff(tree, rng)
    res = snell(tree, payoff)
    values = enumerate_stopping_values(tree, payoff)
    assert values.max() == pytest.approx(float(res.envelope[0][0]), abs=1e-12)
    assert np.all(values <= res.envelope[0][0] + 1e-12)


def test_doob_meyer_split():
    rng = np.random.default_rng(11)
    tree = build_tree(5, MarkSet(sizes=(1.0,), intensities=(0.4,)))
    payoff = random_payoff(tree, rng)
    res = snell(tree, payoff)
    for k in range(tree.num_steps + 1):
        assert np.all(res.envelope[k] >= np.asarray(payoff[k]) - 1e-14)
    for k in range(tree.num_steps):
        # martingale part and predictable nonnegative increments
        defect = tree.cond_exp(res.martingale[k + 1]) - res.martingale[k]
        assert np.max(np.abs(defect)) <= 1e-12
        assert np.min(res.increments[k]) >= -1e-15
        # complementarity: mass only where the envelope touches the payoff
        gap = res.envelope[k] - np.asarray(payoff[k])
        assert np.max(np.where(res.increments[k] > 1e-12, gap, 0.0)) <= 1e-12
    assert np.all(res.compensator[0] == 0.0)


def test_optimal_stop_is_horizon_for_martingales():
    tree = build_tree(4)
    payoff = martingale_payoff(tree, np.cos(np.arange(tree.level_size(4))))
    res = snell(tree, payoff)
    stop = optimal_stopping_time(tree, res, payoff)
    assert np.all(stop.leaf_level == tree.num_steps)
    assert stop.value == pytest.approx(res.envelope[0], abs=1e-12)


def test_optimal_stop_achieves_envelope_value():
    rng = np.random.default_rng(5)
    tree = build_tree(5, MarkSet(sizes=(1.0,), intensities=(0.5,)))
    payoff = random_payoff(tree, rng)
    res = snell(tree, payoff)
    stop = optimal_stopping_time(tree, res, payoff)
    assert np.max(np.abs(stop.value - res.envelope[0])) <= 1e-12
    # the rule stops exactly where the compensator is about to grow
    flags = stop_flags(tree, res)
    for k in range(tree.num_steps):
        touching = res.envelope[k] - np.asarray(payoff[k])
        assert np.max(np.where(flags[k], touching, 0.0)) <= 1e-12
    assert stopped_envelope_residual(tree, res) <= 1e-12


def test_optimal_stop_counterexample_payoff():
    tree = build_tree(4)
    values = (1.0, 1.0, 0.0, 0.0, 0.5)
    payoff = [np.full(tree.level_size(k), v) for k, v in enumerate(values)]
    res = snell(tree, payoff)
    stop = optimal_stopping_time(tree, res, payoff)
    # mass is assigned at level 1, so the rule stops there
    assert np.all(stop.leaf_level == 1)
    assert stop.value == pytest.approx(np.full(1, 1.0))


def test_monotone_limit_of_envelopes():
    rng = np.random.default_rng(9)
    tree = build_tree(4, MarkSet(sizes=(1.0,), intensities=(0.5,)))
    payoff = random_payoff(tree, rng)
    ladder = [[np.asarray(level) - 1.0 / j for level in payoff] for j in (1, 2, 4, 8)]
    report = monotone_limit_check(tree, ladder)
    assert report.passed
    # discrete continuity: the last envelope sits within the payoff gap
    last = snell(tree, ladder[-1]).envelope
    limit = snell(tree, payoff).envelope
    assert sup_diff(last, limit) <= 1.0 / 8 + 1e-12
    with pytest.raises(NotMonotone):
        monotone_limit_check(tree, [payoff, ladder[0]])


def test_regularity_split_counterexample():
    tree = build_tree(4)
    values = (1.0, 1.0, 0.0, 0.0, 0.5)
    payoff = [np.full(tree.level_size(k), v) for k, v in enumerate(values)]
    res = snell(tree, payoff)
    report = regularity_check(tree, res, {2: np.full(tree.level_size(2), 1.0)})
    assert report.kd_mass == pytest.approx(0.5, abs=1e-14)
    assert not report.regular
    assert report.total_mass == pytest.approx(0.5, abs=1e-14)


def test_regularity_no_declared_jumps_is_regular():
    tree = build_tree(3)
    payoff = martingale_payoff(tree, np.sin(np.arange(tree.level_size(3))))
    report = regularity_check(tree, snell(tree, payoff), {})
    assert report.regular
    assert report.kd_mass == 0.0


def test_monotone_limit_check_catches_a_nan():
    tree = build_tree(3)
    ladder = [[np.full(tree.level_size(k), value) for k in range(4)]
              for value in (0.0, 0.5, 1.0)]
    ladder[-1][2][1] = np.nan
    report = monotone_limit_check(tree, ladder)
    assert not report.passed
    assert np.isnan(report.envelope_violation)
