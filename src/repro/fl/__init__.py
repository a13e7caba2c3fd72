"""Federated learning core: clients, server, aggregation and simulation."""

from .aggregation import fedavg, stack_updates, unweighted_average
from .client import BenignClient
from .dispatch_policy import DispatchDecision, DispatchPolicy
from .executor import (
    ClientExecutor,
    ClientTask,
    ClientTaskResult,
    ParallelExecutor,
    SerialExecutor,
    ThreadedExecutor,
    run_client_task,
)
from .faults import (
    FaultEvent,
    FaultInjector,
    FaultPlan,
    FaultStats,
    ResilienceConfig,
    RoundExecutionError,
)
from .selection import ClientSelector, RoundRobinSelector, UniformSelector
from .server import Server
from .simulation import FederatedSimulation, SimulationResult
from .training import evaluate_model, predict_proba, train_local_model, train_on_arrays
from .types import (
    AggregationResult,
    AttackRoundContext,
    DefenseContext,
    LocalTrainingConfig,
    ModelUpdate,
    RoundRecord,
)

__all__ = [
    "fedavg",
    "unweighted_average",
    "stack_updates",
    "BenignClient",
    "DispatchDecision",
    "DispatchPolicy",
    "ClientExecutor",
    "ClientTask",
    "ClientTaskResult",
    "SerialExecutor",
    "ThreadedExecutor",
    "ParallelExecutor",
    "run_client_task",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FaultStats",
    "ResilienceConfig",
    "RoundExecutionError",
    "ClientSelector",
    "UniformSelector",
    "RoundRobinSelector",
    "Server",
    "FederatedSimulation",
    "SimulationResult",
    "train_local_model",
    "train_on_arrays",
    "evaluate_model",
    "predict_proba",
    "ModelUpdate",
    "AttackRoundContext",
    "DefenseContext",
    "AggregationResult",
    "RoundRecord",
    "LocalTrainingConfig",
]
