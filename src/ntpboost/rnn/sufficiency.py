"""Scrubbing harness for the hidden-node-set sufficiency property.

Run a graph normally, stop at a scheduled output time, overwrite every
non-hidden non-input node with random garbage, resume with the same
remaining stream, and demand that all later scheduled outputs match the
undisturbed run.  If they do for many random streams and scrub points,
the declared hidden set really does carry all state the outputs need.

Trials are batched: one baseline run carries every trial stream, and
resumed runs are grouped by scrub time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .engine import _advance, compile_graph
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
    out_row = prog.node_index[graph.output_id]
    report = SufficiencyReport(ok=True, trials=trials)

    tokens = graph.meta.get("alphabet_size", 2)
    streams = rng.choice(tokens, size=(N_TOKENS, trials)).astype(float)
    scrub_at = rng.integers(1, N_TOKENS, size=trials)  # scrub at i * period
    garbage = rng.uniform(0.0, 3.0, size=(len(scrub_rows), trials))

    total = N_TOKENS * period
    init = prog.new_state(trials)
    for col in prog.input_cols:
        init[col] = streams[0]
    baseline, _, _ = _advance(prog, init, streams, 1, total)

    for i in sorted(set(int(v) for v in scrub_at)):
        cols = np.nonzero(scrub_at == i)[0]
        scrub_t = i * period
        scrubbed = baseline[scrub_t - 1][:, cols].copy()
        for row_pos, row in enumerate(scrub_rows):
            scrubbed[row] = garbage[row_pos, cols]
        resumed, _, _ = _advance(prog, scrubbed, streams[:, cols], scrub_t, total)
        for j in range(i + 1, N_TOKENS + 1):
            t = j * period
            want = baseline[t - 1][out_row, cols]
            got = resumed[t - scrub_t][out_row]
            bad = np.abs(want - got) > ATOL
            if bad.any():
                report.ok = False
                for c in cols[np.nonzero(bad)[0]]:
                    report.failures.append(
                        {"trial": int(c), "scrub_time": scrub_t, "diverged_at": t}
                    )
                break
    return report
