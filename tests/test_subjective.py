"""Opinion algebra: contract examples plus property tests over random
opinions (the identities here are the backbone of the score pipeline)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betagraph import sparse
from betagraph import subjective as sl
from oracles import (MultinomialOpinion, balance, dissonance,
                     expected_probability, projected_probability, to_view,
                     vacuity)

finite = dict(allow_nan=False, allow_infinity=False)


@st.composite
def opinions(draw, max_k=6):
    k = draw(st.integers(2, max_k))
    e = draw(st.lists(st.floats(min_value=0.0, max_value=50.0, **finite),
                      min_size=k, max_size=k))
    w = draw(st.floats(min_value=1e-3, max_value=20.0, **finite))
    return MultinomialOpinion(np.array(e), w)


class TestToView:
    def test_zero_evidence(self):
        v = to_view(MultinomialOpinion(np.zeros(2), 2.0))
        assert np.array_equal(v.belief, np.zeros(2))
        assert v.uncertainty == 1.0

    def test_symmetric_evidence(self):
        v = to_view(MultinomialOpinion(np.array([2.0, 2.0]), 2.0))
        assert v.belief == pytest.approx([1 / 3, 1 / 3])
        assert v.uncertainty == pytest.approx(1 / 3)
        assert v.strength == pytest.approx(6.0)

    def test_one_sided(self):
        v = to_view(MultinomialOpinion(np.array([4.0, 0.0]), 2.0))
        assert v.belief == pytest.approx([2 / 3, 0.0])
        assert v.uncertainty == pytest.approx(1 / 3)


class TestVacuity:
    def test_no_evidence_is_total_vacuity(self):
        for w in (0.5, 1.0, 7.0):
            assert vacuity(MultinomialOpinion(np.zeros(3), w)) == 1.0

    def test_examples(self):
        assert vacuity(MultinomialOpinion(np.array([3.0, 1.0]), 1.0)) \
            == pytest.approx(0.2)
        assert vacuity(MultinomialOpinion(np.array([8.0, 0.0]), 2.0)) \
            == pytest.approx(0.2)

    @given(opinions())
    @settings(max_examples=100)
    def test_strictly_decreases_with_evidence(self, op):
        base = vacuity(op)
        bumped = MultinomialOpinion(op.evidence + np.eye(op.evidence.size)[0],
                                    op.prior_weight)
        assert vacuity(bumped) < base


class TestBalance:
    def test_equal_masses(self):
        assert balance(0.3, 0.3) == 1.0

    def test_zero_against_positive(self):
        assert balance(0.0, 0.7) == 0.0

    def test_quarter_three_quarters(self):
        assert balance(0.25, 0.75) == pytest.approx(0.5)

    def test_both_zero_convention(self):
        assert balance(0.0, 0.0) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            balance(-0.1, 0.5)


class TestDissonance:
    def test_one_hot_no_conflict(self):
        assert dissonance(MultinomialOpinion(np.array([4.0, 0.0]), 2.0)) == 0.0

    def test_balanced_two_class(self):
        op = MultinomialOpinion(np.array([2.0, 2.0]), 2.0)
        assert dissonance(op) == pytest.approx(2 / 3)

    def test_all_zero(self):
        assert dissonance(MultinomialOpinion(np.zeros(2), 1.0)) == 0.0

    @given(opinions())
    @settings(max_examples=150)
    def test_bounded(self, op):
        d = dissonance(op)
        assert -1e-12 <= d <= 1.0 + 1e-12

    @given(opinions())
    @settings(max_examples=100)
    def test_zero_when_single_support(self, op):
        e = np.zeros_like(op.evidence)
        e[1] = 5.0
        assert dissonance(MultinomialOpinion(e, op.prior_weight)) == 0.0


class TestProjectedProbability:
    def test_zero_evidence_returns_base_rates(self):
        op = MultinomialOpinion(np.zeros(2), 2.0)
        assert projected_probability(op) == pytest.approx([0.5, 0.5])

    def test_symmetric(self):
        op = MultinomialOpinion(np.array([2.0, 2.0]), 2.0)
        assert projected_probability(op) == pytest.approx([0.5, 0.5])

    def test_one_sided(self):
        op = MultinomialOpinion(np.array([4.0, 0.0]), 2.0)
        assert projected_probability(op) == pytest.approx([5 / 6, 1 / 6])

    def test_three_class_expected(self):
        op = MultinomialOpinion(np.array([1.0, 0.0, 0.0]), 3.0)
        assert expected_probability(op) == pytest.approx([0.5, 0.25, 0.25])


class TestIdentities:
    @given(opinions())
    @settings(max_examples=200)
    def test_belief_plus_uncertainty_is_one(self, op):
        v = to_view(op)
        assert abs(v.belief.sum() + v.uncertainty - 1.0) < 1e-12

    @given(opinions())
    @settings(max_examples=200)
    def test_projected_sums_to_one(self, op):
        assert abs(projected_probability(op).sum() - 1.0) < 1e-12

    @given(opinions())
    @settings(max_examples=200)
    def test_expected_equals_projected(self, op):
        diff = np.abs(expected_probability(op) - projected_probability(op))
        assert diff.max() < 1e-12

    @given(opinions(), st.floats(min_value=0.1, max_value=10.0, **finite))
    @settings(max_examples=150)
    def test_scale_invariance(self, op, c):
        scaled = MultinomialOpinion(op.evidence * c, op.prior_weight * c,
                                    op.base_rates)
        for fn in (vacuity, dissonance):
            assert fn(scaled) == pytest.approx(fn(op), abs=1e-9)
        assert projected_probability(scaled) == pytest.approx(
            projected_probability(op), abs=1e-9)


class TestBatchForms:
    def test_batch_matches_scalar(self):
        gen = np.random.default_rng(4)
        e = gen.uniform(0, 10, size=(64, 4))
        e[gen.random((64, 4)) < 0.3] = 0.0
        w = gen.uniform(0.1, 5.0, size=64)
        b, u = sl.belief_batch(e, w)
        p = sl.projected_batch(e, w, np.full(4, 0.25))
        d = sl.dissonance_batch(b)
        for i in range(64):
            op = MultinomialOpinion(e[i], w[i])
            v = to_view(op)
            assert b[i] == pytest.approx(v.belief, abs=1e-12)
            assert u[i] == pytest.approx(v.uncertainty, abs=1e-12)
            assert p[i] == pytest.approx(projected_probability(op), abs=1e-12)
            assert d[i] == pytest.approx(dissonance(op), abs=1e-12)


class TestValidation:
    def test_negative_evidence_rejected(self):
        with pytest.raises(ValueError):
            MultinomialOpinion(np.array([-1.0, 1.0]), 2.0)

    def test_nonpositive_prior_rejected(self):
        with pytest.raises(ValueError):
            MultinomialOpinion(np.ones(2), 0.0)

    def test_base_rates_must_sum_to_one(self):
        with pytest.raises(ValueError):
            MultinomialOpinion(np.ones(2), 1.0, np.array([0.9, 0.3]))


@pytest.mark.parametrize("offset", [-1, 1])
def test_dissonance_row_blocks_equal_one_pass(monkeypatch, offset):
    """One row off a block edge, dissonance in row blocks equals one
    whole-array pass bit for bit, zero denominators included."""
    n = sparse.ROW_BLOCK + offset
    gen = np.random.default_rng(n)
    b = gen.dirichlet(np.ones(4), n) * gen.random((n, 1))
    b[::3, 1] = 0.0
    b[::7] = 0.0
    b[::11, 1:] = 0.0
    got = sl.dissonance_batch(b)
    monkeypatch.setattr(sparse, "ROW_BLOCK", n)
    assert got.tobytes() == sl.dissonance_batch(b).tobytes()
