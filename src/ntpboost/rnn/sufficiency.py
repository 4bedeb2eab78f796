"""Scrubbing harness for the hidden-node-set sufficiency property.

Run a graph normally, stop at a scheduled output time, overwrite every
non-hidden non-input node with random garbage, resume with the same
remaining stream, and demand that all later scheduled outputs match the
undisturbed run.  If they do for many random streams and scrub points,
the declared hidden set really does carry all state the outputs need.

Trials are batched: one baseline run carries every trial stream, and
resumed runs are grouped by scrub time.  Every run advances one token
period at a time and reads the output from the full state at each
multiple of the period; the baseline keeps full states only at the
scrub times.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .engine import _advance, _start, compile_graph
from .graph import RnnGraph

N_TOKENS = 4  # stream length; a scrub lands after token 1, 2 or 3
ATOL = 1e-12  # largest output change a scrub may cause


@dataclass
class SufficiencyReport:
    ok: bool
    trials: int
    failures: list = field(default_factory=list)

    def first_failure(self):
        return self.failures[0] if self.failures else None


def verify_hidden_sufficiency(
    graph: RnnGraph, trials: int, rng: np.random.Generator
) -> SufficiencyReport:
    """Scrubbing check over random streams of the graph's declared alphabet."""
    prog = compile_graph(graph)
    period = graph.rnn_time
    keep = set(graph.hidden_ids) | set(graph.input_ids)
    scrub_rows = [j for j, n in enumerate(graph.nodes) if n.name not in keep]
    report = SufficiencyReport(ok=True, trials=trials)

    tokens = graph.meta.get("alphabet_size", 2)
    streams = rng.choice(tokens, size=(N_TOKENS, trials)).astype(float)
    scrub_at = rng.integers(1, N_TOKENS, size=trials)  # scrub at i * period
    garbage = rng.uniform(0.0, 3.0, size=(len(scrub_rows), trials))

    # the baseline keeps the output at each multiple of the period, and
    # the full state only at the scrub times
    out_row = prog.node_index[graph.output_id]
    scrub_times = sorted(set(int(v) for v in scrub_at))
    want = np.empty((N_TOKENS, trials))
    scrub_states = {}
    start, _ = _start(prog, streams, None)
    for i, state in _by_period(prog, start, streams, 1, 1):
        want[i - 1] = state[out_row]
        if i in scrub_times:
            scrub_states[i] = state

    for i in scrub_times:
        cols = np.nonzero(scrub_at == i)[0]
        scrub_t = i * period
        scrubbed = scrub_states[i][:, cols]
        for row_pos, row in enumerate(scrub_rows):
            scrubbed[row] = garbage[row_pos, cols]
        for j, state in _by_period(prog, scrubbed, streams[:, cols], scrub_t, i + 1):
            bad = np.abs(want[j - 1, cols] - state[out_row]) > ATOL
            if bad.any():
                report.ok = False
                for c in cols[np.nonzero(bad)[0]]:
                    report.failures.append(
                        {"trial": int(c), "scrub_time": scrub_t, "diverged_at": j * period}
                    )
                break
    return report


def _by_period(prog, state: np.ndarray, streams: np.ndarray, t: int, first: int):
    """From ``state`` at time t, yield (i, the full state at i * period)
    for i = first, ..., N_TOKENS, one token period at a time."""
    period = prog.graph.rnn_time
    for i in range(first, N_TOKENS + 1):
        _, state, _, _ = _advance(prog, state, streams, t, i * period, [])
        t = i * period
        yield i, state
