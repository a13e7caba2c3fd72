"""In-memory span recorder and the patches that time each layer's entry points.

A span is one call into a layer's public function, recorded from the
benchmark's side of the call: its name, its start and end
(``time.perf_counter`` seconds), the span that was open when it started, and
the id of the benchmark run.  Spans stay in memory until the run ends and are
then written as one JSON file.  A layer's *self time* is its span's duration
minus the durations of its direct children, so the self times of a tree add
up to the duration of its root.

:func:`instrument` swaps each entry point for a timing wrapper and restores
the originals on exit; the program itself is not edited.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple


@dataclass
class Span:
    """One timed call into a layer."""

    span_id: int
    name: str
    parent: Optional[int]
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects nested spans of one benchmark run in memory."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = {}
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, parent, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span.span_id)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + amount

    def wrap(self, name: str, fn: Callable, on_call: Optional[Callable] = None) -> Callable:
        """``fn`` with every call recorded as a span called ``name``."""

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if on_call is not None:
                on_call(self, args, kwargs)
            with self.span(name):
                return fn(*args, **kwargs)

        return timed

    def self_times(self) -> List[float]:
        """Self time of every span, indexed like :attr:`spans`."""
        children = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent] += span.duration
        return [span.duration - children[span.span_id] for span in self.spans]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "run": self.run_id,
            "counts": self.counts,
            "spans": [
                {
                    "id": span.span_id,
                    "name": span.name,
                    "parent": span.parent,
                    "start": span.start,
                    "end": span.end,
                    "run": self.run_id,
                }
                for span in self.spans
            ],
        }
        path.write_text(json.dumps(payload))


def _count_training_samples(recorder: SpanRecorder, args, kwargs) -> None:
    """``DispatchPolicy.map_tasks(self, tasks)``: samples x epochs trained."""
    tasks = args[1] if len(args) > 1 else kwargs.get("tasks", ())
    recorder.count(
        "fl.train_samples",
        sum(task.num_samples * task.config.local_epochs for task in tasks),
    )


def _subclasses(cls: type) -> List[type]:
    found: List[type] = []
    pending = [cls]
    while pending:
        for sub in pending.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                pending.append(sub)
    return found


def entry_points() -> List[Tuple[str, object, str, Optional[Callable]]]:
    """``(span name, owner, attribute, on_call)`` for every timed boundary.

    Module-level functions are patched where the calling module bound them
    (``from x import f`` copies the name), so the owner is the caller.
    """
    import repro.attacks  # noqa: F401  (registers every attack class)
    from repro.attacks.base import Attack
    from repro.defenses import bulyan, krum
    from repro.defenses.refd import Refd
    from repro.experiments import dispatch as experiments_dispatch
    from repro.experiments import grid, runner
    from repro.fl import simulation
    from repro.fl.dispatch_policy import DispatchPolicy
    from repro.fl.server import Server

    points: List[Tuple[str, object, str, Optional[Callable]]] = [
        ("fl.build", runner, "build_simulation", None),
        ("data.load", experiments_dispatch, "load_dataset", None),
        ("data.partition", simulation, "partition_dataset", None),
        ("fl.round", simulation.FederatedSimulation, "run_round", None),
        ("fl.train", DispatchPolicy, "map_tasks", _count_training_samples),
        ("fl.evaluate", Server, "evaluate", None),
        ("defenses.aggregate", Server, "aggregate", None),
        ("defenses.refd_score", Refd, "score_updates", None),
        ("defenses.distance", krum, "pairwise_sq_distances", None),
        ("defenses.distance", bulyan, "pairwise_sq_distances", None),
        ("experiments.cell", grid, "run_experiment", None),
        ("experiments.sweep", grid.GridRunner, "run", None),
    ]
    attack_modules = set()
    for cls in _subclasses(Attack):
        attack_modules.add(cls.__module__)
        if "craft_updates" in cls.__dict__:
            points.append(("attacks.craft", cls, "craft_updates", None))
        if "synthesize" in cls.__dict__:
            points.append(("attacks.synthesize", cls, "synthesize", None))
    for module_name in sorted(attack_modules):
        module = sys.modules[module_name]
        if hasattr(module, "train_adversarial_classifier"):
            points.append(("attacks.adv_train", module, "train_adversarial_classifier", None))
    return points


@contextmanager
def instrument(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Record a span around every entry point while the block runs."""
    saved = []
    try:
        for name, owner, attribute, on_call in entry_points():
            original = owner.__dict__[attribute]
            saved.append((owner, attribute, original))
            setattr(owner, attribute, recorder.wrap(name, original, on_call))
        yield recorder
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


@contextmanager
def patched(owner: object, attribute: str, make: Callable[[Callable], Callable]) -> Iterator[None]:
    """Replace ``owner.attribute`` by ``make(original)`` while the block runs."""
    original = owner.__dict__[attribute]
    setattr(owner, attribute, make(original))
    try:
        yield
    finally:
        setattr(owner, attribute, original)
