"""Noise-model sanity: branching, probabilities, martingale identities."""

import numpy as np
import pytest

from rbsde import InfeasibleIntensity, MarkSet, TreeTooLarge, build_tree, expand, sup_diff
from rbsde.tree import _branch_pass


def test_single_bernoulli_step():
    tree = build_tree(1)
    assert tree.branching == 2
    assert tree.level_size(1) == 2
    assert np.allclose(tree.branch_prob, [0.5, 0.5])
    assert np.allclose(sorted(tree.w[1]), [-1.0, 1.0])


def test_two_steps_one_mark_branching():
    tree = build_tree(2, MarkSet(sizes=(1.0,), intensities=(0.5,)))
    assert tree.branching == 4
    assert tree.level_size(2) == 16
    # lam*dt = 0.25: no-jump branches carry 0.375 each, jump branches 0.125
    assert sorted(tree.branch_prob) == pytest.approx([0.125, 0.125, 0.375, 0.375])
    assert abs(tree.branch_prob.sum() - 1.0) <= 1e-15


def test_infeasible_intensity():
    with pytest.raises(InfeasibleIntensity):
        build_tree(1, MarkSet(sizes=(1.0,), intensities=(1.1,)))


def test_node_cap():
    with pytest.raises(TreeTooLarge):
        build_tree(10, MarkSet(sizes=(1.0, 2.0), intensities=(0.5, 0.5)), node_cap=1000)


def test_mark_set_validation():
    with pytest.raises(ValueError):
        MarkSet(sizes=(1.0, 1.0), intensities=(0.5, 0.5))
    with pytest.raises(ValueError):
        MarkSet(sizes=(1.0,), intensities=(-0.5,))
    with pytest.raises(ValueError):
        MarkSet(sizes=(1.0,), intensities=())


def test_compensated_increment_values():
    # lam = 0.5, dt = 0.5: no-jump branch -0.25, jump branch 0.75
    tree = build_tree(2, MarkSet(sizes=(1.0,), intensities=(0.5,)))
    assert tree.branch_comp[0] == pytest.approx([-0.25])
    assert tree.branch_comp[1] == pytest.approx([0.75])
    mean = tree.branch_prob @ tree.branch_comp
    assert np.all(np.abs(mean) <= 1e-15)


def test_conditional_expectation_basics():
    tree = build_tree(2, MarkSet(sizes=(1.0,), intensities=(0.5,)))
    constant = np.full(tree.level_size(1), 3.25)
    assert tree.cond_exp(constant) == pytest.approx([3.25])
    db = tree.w[1] - expand(tree, tree.w[0], 1)
    assert abs(tree.cond_exp(db)[0]) <= 1e-15
    comp = tree.counts[1] - tree.marks.intensity_array * tree.dt
    assert np.all(np.abs(tree.cond_exp(comp)) <= 1e-15)


def test_conditional_expectation_rejects_a_table_of_several_values_per_child():
    tree = build_tree(2, MarkSet(sizes=(1.0, 2.0), intensities=(0.5, 0.3)))
    with pytest.raises(ValueError):
        tree.cond_exp(tree.counts[2])


@pytest.mark.parametrize("seed", range(8))
def test_noise_identities_random_trees(seed):
    rng = np.random.default_rng(seed)
    num_steps = int(rng.integers(1, 7))
    m = int(rng.integers(0, 4))
    marks = MarkSet(sizes=tuple(float(x) for x in np.arange(1, m + 1)),
                    intensities=tuple(float(x) for x in rng.uniform(0.1, 0.8, m))) \
        if m else MarkSet()
    tree = build_tree(num_steps, marks)

    assert abs(tree.branch_prob.sum() - 1.0) <= 1e-15
    assert abs(tree.branch_prob @ tree.branch_db) <= 1e-14
    assert abs(tree.branch_prob @ tree.branch_db ** 2 - tree.dt) <= 1e-14
    for i in range(m):
        assert abs(tree.branch_prob @ tree.branch_comp[:, i]) <= 1e-14
        assert abs(tree.branch_prob @ (tree.branch_db * tree.branch_comp[:, i])) <= 1e-14


def test_brownian_and_counts_are_martingales():
    marks = MarkSet(sizes=(1.0, 2.0), intensities=(0.4, 0.3))
    tree = build_tree(4, marks)
    # full backward summation of the terminal values
    values = tree.w[-1].copy()
    # compensated at t = 1, one column per mark: cond_exp takes one value per child
    comp_counts = list((tree.counts[-1] - marks.intensity_array).T)
    for k in range(tree.num_steps - 1, -1, -1):
        values = tree.cond_exp(values)
        comp_counts = [tree.cond_exp(column) for column in comp_counts]
        assert np.max(np.abs(values - tree.w[k])) <= 1e-14
        expected = tree.counts[k] - marks.intensity_array * tree.time(k)
        assert np.max(np.abs(np.transpose(comp_counts) - expected)) <= 1e-14


def test_atom_probabilities_sum_to_one():
    tree = build_tree(5, MarkSet(sizes=(1.0,), intensities=(0.7,)))
    for k in range(tree.num_steps + 1):
        assert abs(tree.atom_prob[k].sum() - 1.0) <= 1e-13


@pytest.mark.parametrize("m,steps", [(0, 9), (2, 4)])
def test_atom_probabilities_are_built_on_first_read(m, steps):
    marks = MarkSet(sizes=tuple(1.0 + i for i in range(m)),
                    intensities=tuple(0.3 + 0.2 * i for i in range(m)))
    tree = build_tree(steps, marks)
    eager = [np.ones(1)]
    for _ in range(steps):
        eager.append(_branch_pass(np.multiply, eager[-1], tree.branch_prob))
    assert len(tree.atom_prob._levels) == 1
    # a read builds its level and the missing levels below it, nothing above
    assert np.array_equal(tree.atom_prob[steps - 2], eager[steps - 2])
    assert len(tree.atom_prob._levels) == steps - 1
    assert np.array_equal(tree.atom_prob[-1], eager[steps])
    assert len(tree.atom_prob) == steps + 1
    assert all(np.array_equal(a, b) for a, b in zip(tree.atom_prob, eager, strict=True))
    assert tree.atom_prob[steps - 2] is tree.atom_prob[steps - 2]
    with pytest.raises(IndexError):
        tree.atom_prob[steps + 1]


def test_node_navigation():
    tree = build_tree(2, MarkSet(sizes=(1.5, 2.5), intensities=(0.4, 0.3)))
    assert tree.branching == 6
    child = 17
    parent = child // tree.branching
    branch = child % tree.branching
    assert parent == 2 and branch == 5
    assert tree.w[2][child] == pytest.approx(
        tree.w[1][parent] + tree.branch_db[branch])
    assert np.array_equal(tree.counts[2][child],
                          tree.counts[1][parent] + tree.branch_jump[branch])
    assert tree.branch_sign(0) == 1 and tree.branch_sign(3) == -1
    assert tree.branch_outcome(0) is None
    assert tree.branch_outcome(1) == 0
    assert tree.branch_outcome(5) == 1


def _broadcast_levels(tree):
    """The row-major broadcast construction of w, counts and atom_prob."""
    branching, m = tree.branching, tree.marks.count
    w, counts, atom = [np.zeros(1)], [np.zeros((1, m))], [np.ones(1)]
    for _ in range(tree.num_steps):
        w.append((w[-1][:, None] + tree.branch_db[None, :]).ravel())
        counts.append((counts[-1][:, None, :] + tree.branch_jump[None, :, :])
                      .reshape(len(counts[-1]) * branching, m))
        atom.append((atom[-1][:, None] * tree.branch_prob[None, :]).ravel())
    return w, counts, atom


@pytest.mark.parametrize("m,steps", [(0, 9), (1, 5), (2, 4), (3, 3)])
def test_build_matches_broadcast_formulas_bit_for_bit(m, steps):
    marks = MarkSet(sizes=tuple(1.0 + i for i in range(m)),
                    intensities=tuple(0.3 + 0.2 * i for i in range(m)))
    tree = build_tree(steps, marks)
    w, counts, atom = _broadcast_levels(tree)
    for k in range(steps + 1):
        assert np.array_equal(tree.w[k], w[k])
        assert np.array_equal(tree.counts[k], counts[k])
        assert np.array_equal(tree.atom_prob[k], atom[k])


@pytest.mark.parametrize("m,steps", [(0, 6), (1, 4), (2, 3), (3, 2)])
def test_level_arrays_follow_the_layout_contract(m, steps):
    marks = MarkSet(sizes=tuple(1.0 + i for i in range(m)),
                    intensities=tuple(0.2 + 0.1 * i for i in range(m)))
    tree = build_tree(steps, marks)
    for k in range(steps + 1):
        size = tree.branching ** k
        for level, shape in ((tree.w[k], (size,)), (tree.atom_prob[k], (size,)),
                             (tree.counts[k], (size, m))):
            assert level.shape == shape
            assert level.dtype == np.float64
            assert level.flags.c_contiguous
    # child i*B + b is parent i followed along branch b
    last = tree.num_steps
    parents = np.arange(tree.level_size(last)) // tree.branching
    branches = np.arange(tree.level_size(last)) % tree.branching
    assert np.array_equal(tree.w[last], tree.w[last - 1][parents] + tree.branch_db[branches])
    assert np.array_equal(tree.counts[last],
                          tree.counts[last - 1][parents] + tree.branch_jump[branches])


def test_sup_diff_keeps_nan():
    zero = [np.zeros(1), np.zeros(2)]
    assert np.isnan(sup_diff([np.zeros(1), np.array([np.nan, 1.0])], zero))
    assert np.isnan(sup_diff([np.array([np.nan]), np.array([0.0, 1.0])], zero))
    assert sup_diff([np.zeros(1), np.array([-2.0, 1.0])], zero) == 2.0
