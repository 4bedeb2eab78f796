"""Scrubbing harness for the hidden-node-set sufficiency property.

Run a graph normally, stop at a scheduled output time, overwrite every
non-hidden non-input node with random garbage, resume with the same
remaining stream, and demand that all later scheduled outputs match the
undisturbed run.  If they do for many random streams and scrub points,
the declared hidden set really does carry all state the outputs need.

Every trial is carried by one batch, advanced one token period at a
time: a baseline column and a scrub column per trial stream.  After
period i, the scrub columns of the trials that scrub at i get their
garbage.  Until then a scrub column equals its baseline bit for bit, so
``_advance``'s prefix sharing evaluates the pair once.  A scrub group
(the trials that scrub at the same time) stops at the first period
where any of its outputs leaves its baseline's: its scrub columns are
set back to their baselines and merge with them again, so no later
period of that group is checked or raises, as in a run of the group
that ends there.  Each token period is stepped once.
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

    tokens = graph.meta.get("alphabet_size", 2)
    streams = rng.choice(tokens, size=(N_TOKENS, trials)).astype(float)
    scrub_at = rng.integers(1, N_TOKENS, size=trials)  # scrub at i * period
    garbage = rng.uniform(0.0, 3.0, size=(len(scrub_rows), trials))

    # columns [0, trials) are the baselines, [trials, 2 trials) the scrub copies
    both = np.concatenate([streams, streams], axis=1)
    out_row = prog.node_index[graph.output_id]
    groups = {}  # scrub period -> its trials, while the group is checked
    diverged = {}  # scrub period -> (divergence period, its bad trials)
    state, _ = _start(prog, both, None)
    t = 1
    for i in range(1, N_TOKENS + 1):
        _, state, _, _ = _advance(prog, state, both, t, i * period, [])
        t = i * period
        out = state[out_row]
        for g, cols in list(groups.items()):
            bad = np.abs(out[cols] - out[trials + cols]) > ATOL
            if bad.any():
                diverged[g] = (i, cols[bad])
                state[:, trials + cols] = state[:, cols]  # the group ends here
                del groups[g]
        cols = np.nonzero(scrub_at == i)[0]
        if cols.size:
            state[np.ix_(scrub_rows, trials + cols)] = garbage[:, cols]
            groups[i] = cols

    report = SufficiencyReport(ok=not diverged, trials=trials)
    for g in sorted(diverged):
        j, bad = diverged[g]
        report.failures += [
            {"trial": int(c), "scrub_time": g * period, "diverged_at": j * period}
            for c in bad
        ]
    return report
