"""The three benchmark workloads: inputs from a seed, one op, its check.

Each workload is a ``Workload`` whose ``setup(seed)`` builds the input
pool (the part of set-up that ``setup_s`` times after the import), whose
``op(inp)`` is the timed operation, and whose ``check(inp, out)`` runs
outside the op's timed interval and returns ``(ok, digest_bytes,
detail)``.  Inputs are generated here with numpy from the seed; ntpboost only
receives them through its public functions.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from itertools import product
from typing import Callable

import numpy as np

from ntpboost import cli
from ntpboost.boosting import boost_text
from ntpboost.construct import build_boosted_rnn, distinguisher_to_rnn, lm_to_rnn
from ntpboost.dist import Alphabet, TextDistribution, text_to_lm
from ntpboost.distinguishers import table_distinguisher
from ntpboost.families import one_prefix_table_family
from ntpboost.rnn.engine import run as engine_run
from ntpboost.selfboost import run_algorithm

B2 = Alphabet(2)
N, K = 6, 2
RNN_TIME = 2
POOL = 32  # instances per run; ops cycle through the pool

# frozen acceptance tolerances
COND_ATOL = 1e-9
ADV_ATOL = 1e-12


@dataclass
class Workload:
    name: str
    setup: Callable
    op: Callable
    check: Callable
    seed_reaches_inputs: bool = True


def _stream(tag: int, seed: int) -> np.random.Generator:
    return np.random.default_rng([tag, seed])


# ---------------------------------------------------------------------------
# sweep: one large boosted circuit, run over all of Sigma^n at once


def _sweep_instance(rng: np.random.Generator):
    def text():
        raw = rng.random(B2.size**N) + 0.05
        return TextDistribution(B2, N, raw / raw.sum())

    p, q = text(), text()
    # Each (position, previous token) row of the table has exactly half
    # its windows set, so every instance compiles to the same circuit size
    # and every op does the same amount of work.
    entries = {}
    for i in range(1, N + 1):
        windows = list(product(range(B2.size), repeat=min(K, N - i + 1)))
        for prev in (range(B2.size) if i > 1 else [0]):
            for j in rng.permutation(len(windows))[: len(windows) // 2]:
                entries[(i, prev, windows[j])] = 1
    d = table_distinguisher(K, N, entries, keyed_on="prev_window")
    return p, q, d


def sweep_setup(seed: int):
    rng = _stream(1, seed)
    docs = np.array(list(product(range(B2.size), repeat=N))).T  # (n, batch)
    return [(docs,) + _sweep_instance(rng) for _ in range(POOL)]


def sweep_op(inp):
    docs, p, q, d = inp
    res = boost_text(p, q, d)
    q_circ = lm_to_rnn(text_to_lm(q), RNN_TIME)
    d_circ = distinguisher_to_rnn(res.applied, B2, RNN_TIME)
    graph, report = build_boosted_rnn(
        q_circ, d_circ, K, res.alpha, res.offset, B2.size
    )
    outs = engine_run(graph, docs).output_at_multiples()
    return res, report, np.stack([outs[i] for i in range(1, N + 1)])


def sweep_check(inp, out):
    docs, _, _, _ = inp
    res, report, outs = out
    size = B2.size
    worst = 0.0
    prefix = np.zeros(docs.shape[1], dtype=np.int64)
    for i in range(N):
        want = res.lm_boosted.levels[i][prefix, docs[i]]
        worst = max(worst, float(np.max(np.abs(outs[i] - want))))
        prefix = prefix * size + docs[i]
    ok = worst <= COND_ATOL and report.built_size == report.formula_size
    detail = (
        f"worst gap {worst:.3e}, size {report.built_size} "
        f"formula {report.formula_size}"
    )
    return ok, outs.tobytes(), detail


# ---------------------------------------------------------------------------
# selfboost: family search over the 256-member one-prefix family

EPSILON = 0.02
TAU, D_BOUND = 3, 7
SELFBOOST_BOOSTS = 8
# Candidates c of ``selfboost_target`` whose greedy path at EPSILON makes
# exactly SELFBOOST_BOOSTS boosts, so every op does the same family
# search; ``select_targets.py`` regenerates this list.
SELFBOOST_CANDIDATES = [
    58, 83, 88, 90, 103, 144, 191, 208, 210, 213, 235, 266, 268, 288, 328, 331,
    335, 382, 389, 391, 408, 422, 457, 462, 471, 473, 475, 481, 498, 511, 512,
    525, 532, 573, 613, 632, 655, 658, 683, 689, 699, 709, 732, 739, 803, 809,
    814, 821, 849, 883, 891, 892, 904, 908, 912, 918, 922, 936, 950, 960, 970,
    975, 984, 987,
]


def selfboost_target(candidate: int) -> TextDistribution:
    """Seeded random text sharpened as raw**4 + 1e-3, normalized."""
    raw = _stream(2, candidate).random(B2.size**N) ** 4 + 1e-3
    return TextDistribution(B2, N, raw / raw.sum())


def family_bits(k: int) -> np.ndarray:
    """Row j holds the table of ``one_prefix_table_family`` member j."""
    keys = B2.size ** (k + 1)
    members = np.arange(2**keys)[:, None]
    return ((members >> np.arange(keys)[None, :]) & 1).astype(np.float64)


def family_advantages(p: np.ndarray, q: np.ndarray, n: int, k: int, bits):
    """Signed advantage of every one-prefix-table member, from dense tables.

    Independent of ``ntpboost.distinguishers``: the gap
    p(s) * (q(w | s) - p(w | s)) is summed per table key
    (previous token, zero-padded window), and each member's advantage is
    its bit row dotted with those sums, over n.
    """
    size = B2.size
    gaps = np.zeros(bits.shape[1])
    for i in range(1, n + 1):
        kc = min(k, n - i + 1)
        pb = p.reshape(size ** (i - 1), size**kc, -1).sum(axis=2)
        qb = q.reshape(size ** (i - 1), size**kc, -1).sum(axis=2)
        pm = pb.sum(axis=1)
        term = pm[:, None] * (qb / qb.sum(axis=1, keepdims=True) - pb / pm[:, None])
        prev = np.arange(size ** (i - 1)) % size if i > 1 else np.zeros(1, int)
        key = prev[:, None] * size**k + np.arange(size**kc)[None, :] * size ** (k - kc)
        np.add.at(gaps, key.ravel(), term.ravel())
    return bits @ gaps / n


def selfboost_setup(seed: int):
    family = one_prefix_table_family(B2, N, K)
    bits = family_bits(K)
    rng = _stream(3, seed)
    picks = rng.choice(SELFBOOST_CANDIDATES, size=POOL, replace=False)
    return [(family, bits, int(c), selfboost_target(int(c))) for c in picks]


def selfboost_op(inp):
    family, _, candidate, p = inp
    return run_algorithm(
        "plain", p, family, EPSILON, K, TAU, D_BOUND, random.Random(candidate)
    )


def selfboost_check(inp, out):
    _, bits, _, p = inp
    model, trace = out
    losses = trace.losses
    monotone = all(b <= a + ADV_ATOL for a, b in zip(losses, losses[1:]))
    worst = float(np.max(np.abs(family_advantages(p.probs, model.probs, N, K, bits))))
    ok = (
        trace.termination == "loss_plateau"
        and monotone
        and worst <= EPSILON + ADV_ATOL
    )
    detail = (
        f"termination {trace.termination}, boosts {[r.boosts for r in trace.rounds]}, "
        f"family max |adv| {worst:.6f}"
    )
    digest = model.probs.tobytes() + np.array(losses).tobytes()
    return ok, digest, detail


# ---------------------------------------------------------------------------
# verify: the CLI's brute-force oracle matrix


def verify_setup(seed: int):
    # The matrix's instances are frozen; the seed does not reach them.
    here = os.path.dirname(os.path.abspath(__file__))
    out_dir = os.path.join(here, "results", "verify-out")
    os.makedirs(out_dir, exist_ok=True)
    with contextlib.suppress(FileNotFoundError):
        os.unlink(_matrix_path(out_dir))
    return [out_dir]


def _matrix_path(out_dir: str) -> str:
    return os.path.join(out_dir, "verify_matrix.json")


def verify_op(out_dir: str):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(["verify", "--out", out_dir])


def verify_check(out_dir: str, rc):
    """Read and remove the matrix, so the next op must write its own."""
    try:
        with open(_matrix_path(out_dir), "rb") as fh:
            raw = fh.read()
    except FileNotFoundError:
        return False, b"", f"exit {rc}, no verify_matrix.json"
    os.unlink(_matrix_path(out_dir))
    matrix = json.loads(raw)
    failing = [c["name"] for c in matrix["checks"] if not c["ok"]]
    ok = rc == 0 and matrix["all_ok"] is True
    return ok, raw, f"exit {rc}, {len(matrix['checks'])} checks, failing {failing}"


# Why each workload was chosen is in README.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in [
        Workload("sweep", sweep_setup, sweep_op, sweep_check),
        Workload("selfboost", selfboost_setup, selfboost_op, selfboost_check),
        Workload(
            "verify", verify_setup, verify_op, verify_check, seed_reaches_inputs=False
        ),
    ]
}
