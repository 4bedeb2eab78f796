"""Every node at every step, for tests that read internal nodes.

``engine.run`` keeps only the output at the multiples of ``rnn_time``.
``full_run`` starts and advances the streams through the same
``engine._start`` and ``engine._advance`` as ``run`` does, recording
every row at every step.  ``step`` is one update from a named state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ntpboost.rnn.engine import _advance, _start, compile_graph


@dataclass
class FullTrace:
    values: np.ndarray  # (total_steps, nodes, batch)
    node_index: dict[str, int]
    saturation_events: int
    evaluated_columns: int

    @property
    def total_steps(self) -> int:
        return self.values.shape[0]

    def value(self, name: str, t: int) -> np.ndarray:
        """Value(s) of node ``name`` at 1-based time t (batch vector)."""
        assert 1 <= t <= self.total_steps
        return self.values[t - 1, self.node_index[name]]

    def scalar(self, name: str, t: int) -> float:
        v = self.value(name, t)
        assert v.size == 1
        return float(v[0])


def full_run(graph, stream, fixed_point=None) -> FullTrace:
    """``engine.run(graph, stream, fixed_point=...)`` with every node kept."""
    arr = np.asarray(stream, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, None]
    prog = compile_graph(graph)
    state, saturation = _start(prog, arr, fixed_point)
    total = arr.shape[0] * graph.rnn_time
    rows = np.arange(len(graph.nodes))
    values, _, sat, evaluated = _advance(prog, state, arr, 1, total, rows, fixed_point)
    return FullTrace(values, prog.node_index, saturation + sat, evaluated)


def step(graph, state: dict[str, float], current_input: float) -> dict[str, float]:
    """One synchronous update from a named state.

    The update is time step 2 of a one-token stream, so no reset fires.
    """
    prog = compile_graph(graph)
    old = np.array([[state[n.name]] for n in graph.nodes], dtype=np.float64)
    _, new, _, _ = _advance(prog, old, np.array([[float(current_input)]]), 1, 2, [])
    return {n.name: float(new[j, 0]) for j, n in enumerate(graph.nodes)}
