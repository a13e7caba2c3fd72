"""Property-based tests (hypothesis) on core data structures and invariants."""

from __future__ import annotations

import numpy as np
import pytest
from helpers import TwoLayerNet
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.data.dataset import ArrayDataset
from repro.data.partition import DirichletPartitioner, IidPartitioner
from repro.defenses import Bulyan, Median, MultiKrum, TrimmedMean, d_score
from repro.defenses.krum import krum_scores
from repro.fl.aggregation import fedavg
from repro.fl.types import DefenseContext, ModelUpdate
from repro.metrics import attack_success_rate
from repro.nn import functional as F
from repro.nn.serialization import get_flat_params, set_flat_params
from repro.nn.tensor import Tensor

_SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _context(dim: int, num_malicious: int = 1) -> DefenseContext:
    return DefenseContext(
        round_number=0,
        global_params=np.zeros(dim),
        expected_num_malicious=num_malicious,
        rng=np.random.default_rng(0),
    )


# ----------------------------------------------------------------------
# Tensor / autograd invariants
# ----------------------------------------------------------------------
@_SETTINGS
@given(
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3, max_side=5),
               elements=st.floats(-10, 10)),
)
def test_softmax_rows_are_probability_distributions(data):
    probs = F.softmax(Tensor(data), axis=-1).data
    assert np.all(probs >= 0)
    np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-6)


@_SETTINGS
@given(
    hnp.arrays(np.float64, (4, 6), elements=st.floats(-5, 5)),
    hnp.arrays(np.float64, (4, 6), elements=st.floats(-5, 5)),
)
def test_addition_gradient_is_identity_for_both_operands(a, b):
    ta = Tensor(a.copy(), requires_grad=True)
    tb = Tensor(b.copy(), requires_grad=True)
    (ta + tb).sum().backward()
    np.testing.assert_allclose(ta.grad, np.ones_like(a))
    np.testing.assert_allclose(tb.grad, np.ones_like(b))


@_SETTINGS
@given(
    hnp.arrays(np.float64, (3, 4), elements=st.floats(-3, 3)),
    st.integers(min_value=0, max_value=3),
)
def test_cross_entropy_nonnegative_and_consistent_with_soft_targets(logits, label):
    targets = np.full(3, label, dtype=np.int64)
    hard = F.cross_entropy(Tensor(logits), targets).item()
    soft = F.soft_cross_entropy(Tensor(logits), np.eye(4)[targets]).item()
    assert hard >= 0.0
    assert hard == pytest.approx(soft, rel=1e-5, abs=1e-6)


@_SETTINGS
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=1000))
def test_flat_parameter_roundtrip(hidden_scale, seed):
    sizes = (5, 4 * hidden_scale, 3)
    model = TwoLayerNet(sizes, seeds=(seed, seed + 1))
    vector = get_flat_params(model)
    clone = TwoLayerNet(sizes, seeds=(seed + 2, seed + 3))
    set_flat_params(clone, vector)
    np.testing.assert_allclose(get_flat_params(clone), vector)


# ----------------------------------------------------------------------
# Aggregation / defense invariants
# ----------------------------------------------------------------------
@_SETTINGS
@given(
    hnp.arrays(np.float64, (5, 8), elements=st.floats(-100, 100)),
    hnp.arrays(np.int64, (5,), elements=st.integers(1, 50)),
)
def test_fedavg_is_convex_combination(matrix, samples):
    updates = [
        ModelUpdate(client_id=i, parameters=row, num_samples=int(n))
        for i, (row, n) in enumerate(zip(matrix, samples))
    ]
    aggregated = fedavg(updates)
    assert np.all(aggregated <= matrix.max(axis=0) + 1e-9)
    assert np.all(aggregated >= matrix.min(axis=0) - 1e-9)


@_SETTINGS
@given(hnp.arrays(np.float64, (7, 5), elements=st.floats(-50, 50)))
def test_median_and_trimmed_mean_bounded_by_update_range(matrix):
    updates = [
        ModelUpdate(client_id=i, parameters=row, num_samples=1) for i, row in enumerate(matrix)
    ]
    context = _context(5, num_malicious=2)
    for defense in (Median(), TrimmedMean()):
        result = defense.aggregate(updates, context)
        assert np.all(result.new_params <= matrix.max(axis=0) + 1e-9)
        assert np.all(result.new_params >= matrix.min(axis=0) - 1e-9)


@_SETTINGS
@given(hnp.arrays(np.float64, (8, 6), elements=st.floats(-20, 20)), st.integers(0, 1000))
def test_krum_scores_permutation_equivariance(matrix, seed):
    scores = krum_scores(matrix, 2)
    permutation = np.random.default_rng(seed).permutation(matrix.shape[0])
    permuted_scores = krum_scores(matrix[permutation], 2)
    np.testing.assert_allclose(permuted_scores, scores[permutation], rtol=1e-7, atol=1e-6)


@_SETTINGS
@given(hnp.arrays(np.float64, (9, 4), elements=st.floats(-10, 10)))
def test_selecting_defenses_accept_subset_of_submitted_clients(matrix):
    updates = [
        ModelUpdate(client_id=10 + i, parameters=row, num_samples=1)
        for i, row in enumerate(matrix)
    ]
    context = _context(4, num_malicious=2)
    for defense in (MultiKrum(), Bulyan()):
        result = defense.aggregate(updates, context)
        accepted = set(result.accepted_client_ids)
        assert accepted <= {u.client_id for u in updates}
        assert len(accepted) >= 1


@_SETTINGS
@given(st.floats(0.01, 1.0), st.floats(0.01, 1.0))
def test_d_score_bounded_by_components(balance, confidence):
    score = d_score(balance, confidence)
    assert 0.0 <= score <= max(balance, confidence) + 1e-9
    # Symmetric at alpha = 1.
    assert score == pytest.approx(d_score(confidence, balance), rel=1e-9)


@_SETTINGS
@given(st.floats(0.05, 1.0), st.floats(0.0, 1.0))
def test_attack_success_rate_bounds(clean, attacked):
    asr = attack_success_rate(clean, attacked)
    assert asr <= 100.0
    if attacked <= clean:
        assert asr >= 0.0


# ----------------------------------------------------------------------
# Partitioning invariants
# ----------------------------------------------------------------------
@_SETTINGS
@given(
    st.integers(min_value=40, max_value=150),
    st.integers(min_value=2, max_value=8),
    st.floats(min_value=0.1, max_value=5.0),
    st.integers(min_value=0, max_value=10_000),
)
def test_dirichlet_partition_is_a_partition(num_samples, num_clients, beta, seed):
    rng = np.random.default_rng(seed)
    images = np.zeros((num_samples, 1, 8, 8), dtype=np.float32)
    labels = np.arange(num_samples) % 5
    dataset = ArrayDataset(images, labels)
    shards = DirichletPartitioner(beta=beta, min_samples_per_client=1).split(
        dataset, num_clients, rng
    )
    all_indices = np.sort(np.concatenate([shard.indices for shard in shards]))
    np.testing.assert_array_equal(all_indices, np.arange(num_samples))


@_SETTINGS
@given(
    st.integers(min_value=10, max_value=100),
    st.integers(min_value=2, max_value=10),
    st.integers(min_value=0, max_value=10_000),
)
def test_iid_partition_is_balanced(num_samples, num_clients, seed):
    rng = np.random.default_rng(seed)
    images = np.zeros((num_samples, 1, 8, 8), dtype=np.float32)
    labels = np.arange(num_samples) % 3
    dataset = ArrayDataset(images, labels)
    shards = IidPartitioner().split(dataset, num_clients, rng)
    sizes = [len(shard) for shard in shards]
    assert max(sizes) - min(sizes) <= 1
    assert sum(sizes) == num_samples
