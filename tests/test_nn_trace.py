"""Tests for the trace-recorded VJP replay engine (:mod:`repro.nn.trace`).

The engine's contract is *bit-identity*: replaying a recorded tape must
produce exactly the floats the eager per-op closure engine produces, for
every model architecture, across seeds, and under every dispatch backend.
These tests pin that contract, the fallback semantics (shape changes,
untraceable ops), the buffer-plan layout, the process's one buffer
arena every plan draws from, and the numerical correctness of the traced
VJP kernels.
"""

from __future__ import annotations

import numpy as np
import pytest
from helpers import numerical_gradient

from repro import nn
from repro.fl.dispatch_policy import DispatchPolicy
from repro.fl.simulation import FederatedSimulation
from repro.fl.training import train_on_arrays
from repro.fl.types import LocalTrainingConfig
from repro.models.classifiers import (
    MLP,
    CifarCNN,
    FashionCNN,
    GRUClassifier,
    SmallCNN,
)
from repro.models.factory import CLASSIFIER_REGISTRY, ClassifierFactory, build_classifier
from repro.nn import functional as F
from repro.nn import trace
from repro.nn.modules import Parameter
from repro.nn.serialization import get_flat_params
from repro.nn.tensor import Tensor


@pytest.fixture(autouse=True)
def _fresh_trace_cache():
    """Each test starts from an empty process-wide trace cache."""
    trace.reset_trace_cache()
    yield
    trace.reset_trace_cache()


ARCHITECTURES = ("mlp", "small-cnn", "fashion-cnn", "cifar-cnn", "gru")


def _counts():
    """The record/replay/fallback counters, without the arena size."""
    counters = trace.trace_counters()
    return {key: counters[key] for key in ("records", "replays", "fallbacks")}


def _build_model(name: str, seed: int) -> nn.Module:
    rng = np.random.default_rng(seed)
    if name == "mlp":
        return MLP(in_channels=1, image_size=12, num_classes=10, hidden=16, rng=rng)
    if name == "small-cnn":
        return SmallCNN(in_channels=1, image_size=12, num_classes=10, width=4, rng=rng)
    if name == "fashion-cnn":
        return FashionCNN(in_channels=1, image_size=12, num_classes=10, rng=rng)
    if name == "cifar-cnn":
        return CifarCNN(in_channels=3, image_size=12, num_classes=10, width=4, rng=rng)
    if name == "gru":
        return GRUClassifier(in_channels=1, image_size=12, num_classes=10, hidden=8, rng=rng)
    raise AssertionError(name)


def _train(name: str, mode: str, seed: int):
    """Train a fresh model under one trace mode; returns (losses, flat params)."""
    trace.reset_trace_cache()
    channels = 3 if name == "cifar-cnn" else 1
    model = _build_model(name, seed)
    rng = np.random.default_rng(seed + 100)
    # 40 samples with batch 16 -> batches of 16, 16 and 8: exercises both
    # the full-batch and the tail-batch signature in one run.
    x = rng.normal(size=(40, channels, 12, 12)).astype(np.float32)
    y = rng.integers(0, 10, size=40)
    config = LocalTrainingConfig(
        local_epochs=2, batch_size=16, momentum=0.9, weight_decay=1e-4, trace=mode
    )
    losses = train_on_arrays(model, x, y, config, np.random.default_rng(seed + 1))
    return losses, get_flat_params(model).copy()


def _recorded_ops():
    """Names of the ops on every tape in the trace cache."""
    return {
        node.op
        for entry in trace._TRACES.values()
        if isinstance(entry, trace.Trace)
        for node in entry.nodes
    }


class TestEagerReplayBitIdentity:
    @pytest.mark.parametrize("seed", (0, 1, 2))
    @pytest.mark.parametrize("name", ARCHITECTURES)
    def test_replay_matches_eager_bitwise(self, name, seed):
        eager_losses, eager_params = _train(name, "eager", seed)
        replay_losses, replay_params = _train(name, "replay", seed)
        counters = trace.trace_counters()
        assert counters["records"] == 2  # full batch + tail batch
        assert counters["replays"] > 0
        assert counters["fallbacks"] == 0
        assert replay_losses == eager_losses
        assert np.array_equal(eager_params, replay_params)

    def test_registry_is_exactly_what_the_architectures_record(self):
        """A kernel exists only for an op some shipped classifier records,
        and the bitwise cases above replay every one of them."""
        recorded = set()
        for name in ARCHITECTURES:
            _train(name, "replay", 0)
            recorded |= _recorded_ops()
        assert recorded == set(trace.registered_trace_ops())

    def test_record_step_is_an_eager_step(self):
        """The first (recording) step already returns the exact eager loss."""
        model = _build_model("mlp", 3)
        twin = _build_model("mlp", 3)
        rng = np.random.default_rng(9)
        x = rng.normal(size=(8, 1, 12, 12)).astype(np.float32)
        y = rng.integers(0, 10, size=8)
        session = trace.session_for(model)
        recorded = session.step(x, y)
        eager_loss = F.cross_entropy(twin(Tensor(x)), y)
        eager_loss.backward()
        assert recorded == float(eager_loss.item())
        for got, want in zip(model.parameters(), twin.parameters()):
            assert np.array_equal(got.grad, want.grad)

    def test_replayed_gradients_bit_equal_eager(self):
        model = _build_model("small-cnn", 4)
        twin = _build_model("small-cnn", 4)
        rng = np.random.default_rng(5)
        x = rng.normal(size=(6, 1, 12, 12)).astype(np.float32)
        y = rng.integers(0, 10, size=6)
        session = trace.session_for(model)
        session.step(x, y)  # record
        for param in model.parameters():
            param.zero_grad()
        replayed = session.step(x, y)  # replay
        assert trace.trace_counters()["replays"] == 1
        eager_loss = F.cross_entropy(twin(Tensor(x)), y)
        eager_loss.backward()
        assert replayed == float(eager_loss.item())
        for got, want in zip(model.parameters(), twin.parameters()):
            assert np.array_equal(got.grad, want.grad)


class TestDispatchBackendParity:
    @pytest.mark.parametrize("backend", ("serial", "thread", "process"))
    def test_simulation_replay_matches_eager_serial(self, tiny_task, backend):
        """Replay on any backend matches eager serial. The thread backend is
        refused; its case replays every client on one worker process, whose
        single arena serves each client's plans in turn."""
        factory = ClassifierFactory(
            architecture="mlp", in_channels=1, image_size=12, num_classes=10, seed=0
        )

        def run(mode, policy):
            trace.reset_trace_cache()
            with FederatedSimulation(
                task=tiny_task,
                model_factory=factory,
                num_clients=6,
                clients_per_round=3,
                malicious_fraction=0.0,
                seed=11,
                policy=policy,
                training_config=LocalTrainingConfig(
                    local_epochs=1, batch_size=16, trace=mode
                ),
            ) as simulation:
                result = simulation.run(2)
            records = [(r.accuracy, r.test_loss) for r in result.records]
            return records, result.final_params.copy()

        spec = f"{backend}:2"
        if backend == "thread":
            with pytest.raises(ValueError, match="expected 'serial' or 'process"):
                run("replay", spec)
            spec = "process:1"
        eager_records, eager_params = run("eager", "serial")
        replay_records, replay_params = run("replay", spec)
        assert replay_records == eager_records
        assert np.array_equal(eager_params, replay_params)


class TestAutoModeResolution:
    def test_fixed_policy_resolves_auto_to_replay(self, tiny_task, mlp_factory):
        simulation = FederatedSimulation(
            task=tiny_task,
            model_factory=mlp_factory,
            num_clients=6,
            clients_per_round=3,
            seed=0,
            training_config=LocalTrainingConfig(local_epochs=2, batch_size=8),
        )
        assert simulation.training_config.trace == "replay"

    def test_config_field_pins_eager_where_auto_would_replay(self, tiny_task, mlp_factory):
        simulation = FederatedSimulation(
            task=tiny_task,
            model_factory=mlp_factory,
            num_clients=6,
            clients_per_round=3,
            seed=0,
            training_config=LocalTrainingConfig(local_epochs=2, batch_size=8, trace="eager"),
        )
        assert simulation.training_config.trace == "eager"

    def test_explicit_config_bypasses_the_policy(self, tiny_task, mlp_factory):
        simulation = FederatedSimulation(
            task=tiny_task,
            model_factory=mlp_factory,
            num_clients=6,
            clients_per_round=3,
            seed=0,
            training_config=LocalTrainingConfig(trace="eager"),
        )
        assert simulation.training_config.trace == "eager"

    @pytest.mark.parametrize(
        "batch_size, local_epochs, expected",
        [(64, 1, "eager"), (64, 2, "replay"), (8, 1, "replay")],
    )
    def test_auto_replays_from_two_optimizer_steps(
        self, tiny_task, mlp_factory, batch_size, local_epochs, expected
    ):
        """``trace="auto"`` replays once a client's local training takes two
        or more optimizer steps (an average shard here is 120 // 6 = 20
        samples), since recording cannot amortise over a single step."""
        simulation = FederatedSimulation(
            task=tiny_task,
            model_factory=mlp_factory,
            num_clients=6,
            clients_per_round=3,
            seed=0,
            training_config=LocalTrainingConfig(
                local_epochs=local_epochs, batch_size=batch_size
            ),
        )
        assert simulation.training_config.trace == expected

    def test_train_site_rejects_executor_api(self):
        """The autograd engine is no dispatch option: the config field picks it."""
        with pytest.raises(ValueError, match="process"):
            DispatchPolicy.coerce("serial,train=eager")

    def test_config_validates_trace_value(self):
        with pytest.raises(ValueError, match="trace"):
            LocalTrainingConfig(trace="magic")


class _Untraced(nn.Module):
    """A linear classifier whose logits pass through one op that carries no
    trace descriptor."""

    OPS = ("pow", "neg", "sum")

    def __init__(self, op: str) -> None:
        super().__init__()
        self.fc = nn.Linear(4, 3, rng=np.random.default_rng(0))
        self.op = op
        self.trace_signature = ("test-untraced", op)

    def forward(self, x):
        logits = self.fc(x)
        if self.op == "pow":
            return logits ** 2
        if self.op == "neg":
            return -logits
        return logits + logits.sum(axis=1, keepdims=True) * 0.5


class TestFallbacks:
    def test_shape_change_records_a_new_signature(self):
        model = _build_model("mlp", 0)
        session = trace.session_for(model)
        rng = np.random.default_rng(0)
        x_full = rng.normal(size=(16, 1, 12, 12)).astype(np.float32)
        y_full = rng.integers(0, 10, size=16)
        x_tail = x_full[:5]
        y_tail = y_full[:5]
        assert session.step(x_full, y_full) is not None
        assert session.step(x_tail, y_tail) is not None
        assert _counts() == {"records": 2, "replays": 0, "fallbacks": 0}
        assert session.step(x_full, y_full) is not None
        assert session.step(x_tail, y_tail) is not None
        assert trace.trace_counters()["replays"] == 2

    def test_every_batch_shape_records_once_and_replays(self):
        """A federation's many tail-batch sizes each record once and then
        replay; none falls back to eager."""
        model = _build_model("mlp", 0)
        session = trace.session_for(model)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(40, 1, 12, 12)).astype(np.float32)
        y = rng.integers(0, 10, size=40)
        for batch in range(1, 41):
            assert session.step(x[:batch], y[:batch]) is not None  # record
            assert session.step(x[:batch], y[:batch]) is not None  # replay
            assert session.fallback_reason(x[:batch], y[:batch]) is None
        assert _counts() == {"records": 40, "replays": 40, "fallbacks": 0}

    def test_untraced_op_poisons_the_signature(self):
        model = _Untraced("pow")
        session = trace.session_for(model)
        rng = np.random.default_rng(1)
        x = rng.normal(size=(5, 4)).astype(np.float32)
        y = rng.integers(0, 3, size=5)
        first = session.step(x, y)
        assert first is not None  # the recording step still ran eagerly
        assert session.step(x, y) is None  # poisoned: callers go eager
        assert "descriptor" in session.fallback_reason(x, y)
        assert trace.trace_counters()["fallbacks"] == 1

    @pytest.mark.parametrize("op", _Untraced.OPS)
    def test_untraced_op_trains_with_the_eager_bits(self, op):
        """An op without a descriptor pins its signature to eager, counts a
        fallback, and training ends on the eager engine's exact bits."""

        rng = np.random.default_rng(2)
        x = rng.normal(size=(20, 4)).astype(np.float32)
        y = rng.integers(0, 3, size=20)

        def train(mode):
            trace.reset_trace_cache()
            model = _Untraced(op)
            config = LocalTrainingConfig(local_epochs=2, batch_size=8, trace=mode)
            losses = train_on_arrays(model, x, y, config, np.random.default_rng(3))
            return model, losses

        eager_model, eager_losses = train("eager")
        assert _counts() == {"records": 0, "replays": 0, "fallbacks": 0}
        model, losses = train("replay")
        # Batches of 8, 8 and 4: each signature records once, then falls back.
        assert _counts() == {"records": 0, "replays": 0, "fallbacks": 2}
        assert "descriptor" in trace.session_for(model).fallback_reason(x[:8], y[:8])
        assert losses == eager_losses
        assert np.array_equal(get_flat_params(model), get_flat_params(eager_model))

    def test_models_without_signature_stay_eager(self):
        model = nn.Linear(4, 3, rng=np.random.default_rng(0))
        assert trace.session_for(model) is None

    def test_extra_loss_disables_the_session(self):
        model = _build_model("mlp", 0)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(12, 1, 12, 12)).astype(np.float32)
        y = rng.integers(0, 10, size=12)
        config = LocalTrainingConfig(local_epochs=1, batch_size=6, trace="replay")
        train_on_arrays(
            model,
            x,
            y,
            config,
            np.random.default_rng(1),
            extra_loss=lambda m: (m.fc1.weight * m.fc1.weight).sum() * 1e-4,
        )
        assert trace.trace_counters() == {
            "records": 0, "replays": 0, "fallbacks": 0, "arena_bytes": 0
        }


class _TwoConv(nn.Module):
    """Two convolutions with identical geometry (the buffer-plan fixture)."""

    def __init__(self, freeze_second: bool = False) -> None:
        super().__init__()
        rng = np.random.default_rng(0)
        self.conv1 = nn.Conv2d(2, 2, kernel_size=3, stride=1, padding=1, rng=rng)
        self.conv2 = nn.Conv2d(2, 2, kernel_size=3, stride=1, padding=1, rng=rng)
        self.fc = nn.Linear(2 * 6 * 6, 3, rng=rng)
        if freeze_second:
            self.conv2.weight.requires_grad = False
            if self.conv2.bias is not None:
                self.conv2.bias.requires_grad = False
        self.trace_signature = ("test-two-conv", freeze_second)

    def forward(self, x):
        x = self.conv1(x).relu()
        x = self.conv2(x).relu()
        return self.fc(x.flatten_batch())


def _conv_plan(model):
    session = trace.session_for(model)
    rng = np.random.default_rng(2)
    x = rng.normal(size=(4, 2, 6, 6)).astype(np.float32)
    y = rng.integers(0, 3, size=4)
    assert session.step(x, y) is not None
    plan = session.plan_for(x, y)
    assert plan is not None
    conv_nodes = [
        i for i, node in enumerate(plan.trace.nodes) if node.op == "conv2d"
    ]
    assert len(conv_nodes) == 2
    return plan, conv_nodes


class TestBufferPlanAliasing:
    def test_same_geometry_convs_own_distinct_cols_buffers(self):
        """The eager bug class this engine fixes: the im2col buffer must be
        plan state keyed by node, never shared between ops of equal shape."""
        plan, conv_nodes = _conv_plan(_TwoConv())
        cols = [plan.saved[(i, "cols")] for i in conv_nodes]
        assert cols[0].shape == cols[1].shape
        assert not np.shares_memory(cols[0], cols[1])

    def test_data_gradient_saves_no_column_matrix(self):
        """The conv VJP adds each tap's product straight into the gradient:
        the only column-shaped buffers in the plan are the forward's cols,
        whether or not the weight needs a gradient."""
        for freeze_second in (False, True):
            plan, conv_nodes = _conv_plan(_TwoConv(freeze_second))
            cols_shape = plan.saved[(conv_nodes[1], "cols")].shape
            column_shaped = {
                key for key, buf in plan.saved.items() if buf.shape == cols_shape
            }
            assert column_shaped == {(node, "cols") for node in conv_nodes}

    def test_plan_shrinks_by_at_least_the_column_gradient(self):
        """With a column-matrix data gradient the plan measured 52,480 bytes,
        10,368 of them conv2's ``(4, 18, 36)`` float32 gradient columns.  The
        plan must fall by at least those columns: the tap kernel's ``taps``
        and ``product`` scratch fit in the padded image the columns were
        scattered into, which is gone too."""
        column_path_plan_bytes = 52_480
        grad_cols_bytes = 4 * (2 * 3 * 3) * (6 * 6) * 4
        plan, _ = _conv_plan(_TwoConv())
        assert trace.plan_bytes(plan.trace) <= column_path_plan_bytes - grad_cols_bytes

    def test_replay_buffers_are_stable_across_steps(self):
        model = _build_model("small-cnn", 0)
        session = trace.session_for(model)
        rng = np.random.default_rng(3)
        x = rng.normal(size=(6, 1, 12, 12)).astype(np.float32)
        y = rng.integers(0, 10, size=6)
        session.step(x, y)
        plan = session.plan_for(x, y)
        before = {key: id(buf) for key, buf in plan.saved.items()}
        grads_before = {slot: id(buf) for slot, buf in plan.grads.items()}
        session.step(x, y)
        session.step(x, y)
        assert plan.steps_replayed == 2
        assert {key: id(buf) for key, buf in plan.saved.items()} == before
        assert {slot: id(buf) for slot, buf in plan.grads.items()} == grads_before


def _eager_twin_step(twin, x, y):
    """Loss and parameter gradients of one eager step on ``twin``."""
    for param in twin.parameters():
        param.zero_grad()
    loss = F.cross_entropy(twin(Tensor(x)), y)
    loss.backward()
    return float(loss.item()), [param.grad for param in twin.parameters()]


def _assert_replay_matches_eager(model, twin, session, x, y):
    for param in model.parameters():
        param.zero_grad()
    replayed = session.step(x, y)
    want_loss, want_grads = _eager_twin_step(twin, x, y)
    assert replayed == want_loss
    for param, want in zip(model.parameters(), want_grads):
        assert np.array_equal(param.grad, want)


def _batches(channels: int, size: int, seed: int):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(size, channels, 12, 12)).astype(np.float32)
    return x, rng.integers(0, 10, size=size)


class TestBufferArena:
    def test_interleaved_signatures_match_eager_across_growth(self):
        """Plans of two signatures share one arena in a mixed order; a
        third, larger plan grows it, and the stale plans rebind."""
        models = {
            name: (_build_model(name, 7), _build_model(name, 7))
            for name in ("small-cnn", "mlp", "cifar-cnn")
        }
        sessions = {name: trace.session_for(pair[0]) for name, pair in models.items()}
        data = {
            ("small-cnn", 32): _batches(1, 32, 1),
            ("mlp", 7): _batches(1, 7, 2),
            ("small-cnn", 18): _batches(1, 18, 3),
            ("cifar-cnn", 40): _batches(3, 40, 4),
        }
        order = [("small-cnn", 32), ("mlp", 7), ("small-cnn", 18), ("cifar-cnn", 40)]
        first_plan = None
        for name, batch in order:
            model, twin = models[name]
            x, y = data[(name, batch)]
            assert sessions[name].step(x, y) is not None  # record
            _assert_replay_matches_eager(model, twin, sessions[name], x, y)
            _assert_replay_matches_eager(model, twin, sessions[name], x, y)
            if first_plan is None:
                first_plan = sessions[name].plan_for(x, y)
                first_bytes = trace.trace_counters()["arena_bytes"]
                assert first_bytes == first_plan.nbytes
        grown = sessions["cifar-cnn"].plan_for(*data[("cifar-cnn", 40)])
        assert grown.nbytes > first_bytes
        assert trace.trace_counters()["arena_bytes"] == grown.nbytes
        # A32 again: its plan went stale with the growth and rebinds.
        model, twin = models["small-cnn"]
        x, y = data[("small-cnn", 32)]
        _assert_replay_matches_eager(model, twin, sessions["small-cnn"], x, y)
        rebound = sessions["small-cnn"].plan_for(x, y)
        assert rebound is not first_plan
        assert rebound.arena is grown.arena
        assert _counts() == {"records": 4, "replays": 9, "fallbacks": 0}

    def test_arena_holds_the_largest_plan_not_the_sum(self):
        model = _build_model("small-cnn", 0)
        session = trace.session_for(model)
        x, y = _batches(1, 48, 5)
        sizes = (3, 8, 13, 21, 34, 48)  # growing: every new plan grows the arena
        for size in sizes:
            session.step(x[:size], y[:size])  # record
            session.step(x[:size], y[:size])  # replay binds the plan
        plan_bytes = [session.plan_for(x[:size], y[:size]).nbytes for size in sizes]
        arena_bytes = trace.trace_counters()["arena_bytes"]
        assert arena_bytes == max(plan_bytes)
        assert arena_bytes < sum(plan_bytes)
        trace.reset_trace_cache()
        assert trace.trace_counters()["arena_bytes"] == 0

    @pytest.mark.parametrize("name", ARCHITECTURES)
    def test_replay_reads_nothing_left_in_the_arena(self, name):
        """Arena contents do not survive a step: overwriting the whole
        arena with NaN between steps must not change a replayed step."""
        model, twin = _build_model(name, 3), _build_model(name, 3)
        session = trace.session_for(model)
        x, y = _batches(3 if name == "cifar-cnn" else 1, 10, 6)
        session.step(x, y)  # record
        _assert_replay_matches_eager(model, twin, session, x, y)
        arena = session.plan_for(x, y).arena
        arena.view(0, (arena.nbytes,), np.dtype(np.uint8)).fill(0xFF)
        _assert_replay_matches_eager(model, twin, session, x, y)

    def test_buffers_within_a_plan_never_overlap(self):
        plan, _ = _conv_plan(_TwoConv())
        root = plan.grads[plan.trace.loss_slot]  # private, not in the arena
        buffers = list(plan.buffers.values()) + list(plan.saved.values())
        buffers += [grad for grad in plan.grads.values() if grad is not root]
        for i, first in enumerate(buffers):
            assert first.flags.c_contiguous
            assert first.ctypes.data % trace.ARENA_ALIGNMENT == 0
            for second in buffers[i + 1 :] + [root]:
                assert not np.shares_memory(first, second)


class _OpsSoup(nn.Module):
    """Float64 model exercising the element-wise traced VJP kernels."""

    def __init__(self) -> None:
        super().__init__()
        rng = np.random.default_rng(12)
        self.w = Parameter(rng.normal(size=(5, 7)) * 0.4)
        self.b = Parameter(rng.normal(size=(7,)) * 0.1)
        self.v = Parameter(rng.normal(size=(7, 4)) * 0.4)
        self.trace_signature = ("test-ops-soup",)

    def forward(self, x):
        h = (x @ self.w + self.b).tanh()
        h = h * h.sigmoid()
        h = (h - 0.25) * (h + 1.0)
        h = h.reshape(h.shape[0], 7)
        return h @ self.v


class TestTracedOpGradients:
    def _replayed_grads(self, model, x, y):
        session = trace.session_for(model)
        assert session.step(x, y) is not None  # record
        for param in model.parameters():
            param.zero_grad()
        assert session.step(x, y) is not None  # replay
        assert trace.trace_counters()["replays"] == 1
        return [param.grad.copy() for param in model.parameters()]

    def test_elementwise_soup_matches_numerical_gradient(self):
        model = _OpsSoup()
        rng = np.random.default_rng(3)
        x = rng.normal(size=(6, 5))
        y = rng.integers(0, 4, size=6)
        grads = self._replayed_grads(model, x, y)

        def value():
            return float(F.cross_entropy(model(Tensor(x)), y).item())

        for param, grad in zip(model.parameters(), grads):
            numeric = numerical_gradient(value, param.data)
            np.testing.assert_allclose(grad, numeric, atol=1e-6)

    def test_conv2d_replay_matches_numerical_gradient(self):
        class TinyConv(nn.Module):
            def __init__(self):
                super().__init__()
                rng = np.random.default_rng(0)
                self.conv = nn.Conv2d(1, 2, kernel_size=3, stride=2, padding=1, rng=rng)
                self.fc = nn.Linear(2 * 3 * 3, 3, rng=rng)
                self.trace_signature = ("test-tiny-conv",)

            def forward(self, x):
                return self.fc(self.conv(x).relu().flatten_batch())

        model = TinyConv()
        for param in model.parameters():
            param.data = param.data.astype(np.float64)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(3, 1, 6, 6))
        y = rng.integers(0, 3, size=3)
        grads = self._replayed_grads(model, x, y)

        def value():
            return float(F.cross_entropy(model(Tensor(x)), y).item())

        for param, grad in zip(model.parameters(), grads):
            numeric = numerical_gradient(value, param.data)
            np.testing.assert_allclose(grad, numeric, atol=1e-6)

    def test_gru_classifier_replay_matches_numerical_gradient(self):
        """Golden gradients for the recurrent path: the GRU tape (matmul,
        sigmoid/tanh gates, slicing, state reuse) replayed against central
        differences in float64."""
        model = GRUClassifier(
            in_channels=1,
            image_size=5,
            num_classes=3,
            hidden=4,
            rng=np.random.default_rng(0),
        )
        for param in model.parameters():
            param.data = param.data.astype(np.float64)
        rng = np.random.default_rng(6)
        x = rng.normal(size=(3, 1, 5, 5))
        y = rng.integers(0, 3, size=3)
        grads = self._replayed_grads(model, x, y)
        assert any(np.abs(grad).max() > 0 for grad in grads)

        def value():
            return float(F.cross_entropy(model(Tensor(x)), y).item())

        for param, grad in zip(model.parameters(), grads):
            numeric = numerical_gradient(value, param.data)
            np.testing.assert_allclose(grad, numeric, atol=1e-6)


class TestModelFactoryIntegration:
    def test_gru_is_registered(self):
        assert "gru" in CLASSIFIER_REGISTRY
        model = build_classifier("gru", in_channels=1, image_size=12, num_classes=10, seed=0)
        logits = model(Tensor(np.zeros((2, 1, 12, 12), dtype=np.float32)))
        assert logits.shape == (2, 10)

    def test_factory_exposes_trace_signature(self):
        factory = ClassifierFactory(
            architecture="fashion-cnn",
            in_channels=1,
            image_size=12,
            num_classes=10,
            seed=0,
        )
        assert factory.trace_signature == ("fashion-cnn", 1, 12, 10)
        assert factory.trace_signature == factory().trace_signature

    @pytest.mark.parametrize("name", ARCHITECTURES)
    def test_every_architecture_declares_a_signature(self, name):
        model = _build_model(name, 0)
        assert trace.session_for(model) is not None
