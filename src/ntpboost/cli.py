"""Command-line front end: boost, construct, simulate, selfboost, verify, report.

Every run is deterministic given its arguments and seed; artifacts are
written atomically and serialized with sorted keys so reruns are
byte-identical.  Errors leave a machine-readable JSON object on stderr
and a nonzero exit status.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import decimal
import io as _io
import json
import math
import os
import random
import sys

import numpy as np

from . import io as nio
from .boosting import boost_text
from .construct import build_boosted_rnn, distinguisher_to_rnn, lm_to_rnn
from .dist import text_to_lm, token_strings, uniform_text
from .errors import FormatError, NtpboostError, PreconditionError, ValidationError
from .families import one_prefix_table_family
from .fixedpoint import FixedPointFormat, quantized_run
from .rnn.engine import run as engine_run
from .selfboost import BITS, PLAIN, run_algorithm
from .verify import run_all

ROUND_CSV_COLUMNS = ["round", "N_i", "H_i", "T_i", "L_i", "KL", "alpha"]
# the trace fields each rounds.csv row is written from, with their JSON types
ROUND_FIELDS = {
    "index": int, "budget_size": int, "budget_hidden": int, "budget_time": str,
    "loss": float, "kl": float, "best_advantage": float, "certified": bool,
}
# documents a compiled selfboost round may run; larger instances are not compiled
COMPILE_ENUM_CAP = 1 << 14


def _out_path(args, name: str) -> str:
    return os.path.join(args.out, name)


def _agree(key: str, value, path: str, want, want_path: str) -> None:
    """A ``FormatError`` naming both files unless field ``key`` agrees."""
    if value != want:
        raise FormatError(
            f"{key} {value} disagrees with {key} {want} at {want_path}/{key}",
            f"{path}/{key}",
        )


def cmd_boost(args) -> int:
    p = nio.distribution_from_json(nio.read_json(args.train), args.train)
    q = nio.distribution_from_json(nio.read_json(args.model), args.model)
    _agree("alphabet_size", q.alphabet.size, args.model, p.alphabet.size, args.train)
    _agree("n", q.n, args.model, p.n, args.train)
    d = nio.distinguisher_from_json(
        nio.read_json(args.distinguisher), p.alphabet, args.distinguisher
    )
    _agree("n", d.n, args.distinguisher, p.n, args.train)
    res = boost_text(p, q, d)
    nio.write_json_atomic(
        _out_path(args, "boost_result.json"),
        {
            "offset": res.offset,
            "alpha": res.alpha,
            "kl_before": res.kl_before,
            "kl_after": res.kl_after,
            "guaranteed_drop": res.guaranteed_drop,
        },
    )
    nio.write_json_atomic(
        _out_path(args, "boosted_distribution.json"),
        nio.distribution_to_json(res.q_boosted),
    )
    print(
        f"boost: alpha={res.alpha:.6g} offset={res.offset} "
        f"KL {res.kl_before:.6g} -> {res.kl_after:.6g}"
    )
    return 0


def cmd_construct(args) -> int:
    if args.k < 1:
        raise PreconditionError(f"--k must be at least 1, got {args.k}")
    if not 0 <= args.offset <= args.k - 1:
        raise PreconditionError(
            f"--offset must be in [0, {args.k - 1}] for --k {args.k}, got {args.offset}"
        )
    if not 0.0 <= args.alpha <= 1.0:  # NaN fails too
        raise PreconditionError(f"--alpha must be a number in [0, 1], got {args.alpha}")
    q = nio.graph_from_json(nio.read_json(args.model), args.model)
    d = nio.graph_from_json(nio.read_json(args.distinguisher), args.distinguisher)
    q_meta, d_meta = f"{args.model}/meta", f"{args.distinguisher}/meta"
    base = nio.field(q.meta, "alphabet_size", int, q_meta)
    d_base = nio.field(d.meta, "alphabet_size", int, d_meta, base)
    _agree("alphabet_size", d_base, d_meta, base, q_meta)
    if "n" in q.meta and "n" in d.meta:  # a boosted circuit carries no n
        n = nio.field(q.meta, "n", int, q_meta)
        _agree("n", nio.field(d.meta, "n", int, d_meta), d_meta, n, q_meta)
    k = nio.field(d.meta, "k", int, d_meta, args.k)
    if k != args.k:
        raise FormatError(
            f"--k {args.k} disagrees with the distinguisher's k {k}",
            f"{args.distinguisher}/meta/k",
        )
    graph, report = build_boosted_rnn(q, d, args.k, args.alpha, args.offset, base)
    nio.write_json_atomic(_out_path(args, "boosted_graph.json"), nio.graph_to_json(graph))
    nio.write_json_atomic(
        _out_path(args, "construction_report.json"), dataclasses.asdict(report)
    )
    print(
        f"construct: size={report.built_size} hidden={report.built_hidden} "
        f"time={report.built_time}"
    )
    return 0


def _parse_tokens(text: str) -> list[float]:
    tokens = []
    for pos, tok in enumerate(text.split(","), start=1):
        try:
            value = float(tok)
        except ValueError:
            value = math.nan  # rejected below, with the infinities
        if not math.isfinite(value):
            raise ValidationError(f"--input token {pos} is not a number: {tok!r}")
        tokens.append(value)
    return tokens


def cmd_simulate(args) -> int:
    graph = nio.graph_from_json(nio.read_json(args.graph), args.graph)
    stream = np.array(_parse_tokens(args.input))
    if args.quantized:
        where = f"{args.graph}/meta"
        bits = nio.field(graph.meta, "bits", dict, where)
        fmt = FixedPointFormat(
            nio.field(bits, "integer", int, where + "/bits"),
            nio.field(bits, "fraction", int, where + "/bits"),
        )
        trace = quantized_run(graph, fmt, stream)
    else:
        trace = engine_run(graph, stream)
    outs = trace.output_at_multiples()
    payload = {
        "graph": os.path.basename(args.graph),
        "rnn_time": graph.rnn_time,
        "quantized": bool(args.quantized),
        "saturation_events": trace.saturation_events,
        "outputs": {str(i): float(v[0]) for i, v in outs.items()},
    }
    nio.write_json_atomic(_out_path(args, "simulation.json"), payload)
    print(
        "simulate: outputs "
        + " ".join(f"{i}:{float(v[0]):.6g}" for i, v in sorted(outs.items()))
    )
    return 0


def _rounds_csv(rounds: list[dict]) -> str:
    """rounds.csv from the ``rounds`` records of a trace payload."""
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(ROUND_CSV_COLUMNS)
    for r in rounds:
        alpha = r["best_advantage"] if not r["certified"] else 0.0
        writer.writerow(
            [
                r["index"],
                r["budget_size"],
                r["budget_hidden"],
                r["budget_time"],
                f"{r['loss']:.12g}",
                f"{r['kl']:.12g}",
                f"{alpha:.12g}",
            ]
        )
    return buf.getvalue()


def _exact_decimal(value: int) -> str:
    """Every decimal digit of a nonnegative integer, at any size.

    ``str`` refuses integers of more than 4300 digits unless a
    process-wide limit is raised.  The integer is split in halves down to
    128-bit pieces, which ``Decimal`` holds exactly, and recombined as
    lo + hi * 2^w in a local context that cannot round (rounding would
    trap).  Decimal multiplies large numbers in subquadratic time, so
    275k digits take a tenth of a second, where ``str(Decimal(value))``
    takes two.
    """

    def join(n: int, w: int) -> decimal.Decimal:
        if w <= 128:
            return decimal.Decimal(n)
        half = w >> 1
        hi = n >> half
        low = join(n - (hi << half), half)
        return low + join(hi, w - half) * decimal.Decimal(2) ** half

    with decimal.localcontext() as ctx:
        ctx.prec, ctx.Emax = decimal.MAX_PREC, decimal.MAX_EMAX
        ctx.traps[decimal.Inexact] = True
        return str(join(value, value.bit_length()))


def _trace_payload(trace) -> dict:
    payload = dataclasses.asdict(trace)
    for r in payload["rounds"]:
        r["budget_time"] = _exact_decimal(r["budget_time"])
    payload["minimizer"] = "constructive best-distinguisher boosting over the family"
    return payload


def cmd_selfboost(args) -> int:
    where = args.config
    cfg = nio.read_json(where)

    def get(key, kind, *default, allowed=None):
        return nio.field(cfg, key, kind, where, *default, allowed=allowed)

    positive = nio.Between(1)
    dist_path = get("distribution_file", str)
    epsilon = get("epsilon", float, allowed=nio.Between(0, 1, open=True))
    seed, tau = get("seed", int, args.seed), get("tau", int, 3, allowed=positive)
    d_bound = get("d_bound", int, 7, allowed=positive)
    get("b_d", int, 0)  # read only to check it: no schedule reads it
    want_compile = get("compile", bool, False)
    variant = get("variant", str, PLAIN, allowed=(PLAIN, BITS))
    family = get("family", dict, {})  # read only to check it: one kind exists
    nio.field(family, "kind", str, where + "/family", "one_prefix_table",
              allowed=("one_prefix_table",))
    if not os.path.isabs(dist_path):
        dist_path = os.path.join(os.path.dirname(os.path.abspath(where)), dist_path)
    p = nio.distribution_from_json(nio.read_json(dist_path), dist_path)
    k = get("k", int, allowed=nio.Between(1, p.n))
    fam = one_prefix_table_family(p.alphabet, p.n, k)
    compile_hook = make_compile_hook(p, fam) if want_compile or args.compile else None
    model, trace = run_algorithm(
        variant,
        p,
        fam,
        epsilon,
        k,
        tau,
        d_bound,
        random.Random(seed),
        compile_hook=compile_hook,
    )
    payload = _trace_payload(trace)
    nio.write_json_atomic(_out_path(args, "selfboost_trace.json"), payload)
    nio.write_text_atomic(
        _out_path(args, "rounds.csv"), _rounds_csv(payload["rounds"])
    )
    nio.write_json_atomic(
        _out_path(args, "final_model.json"), nio.distribution_to_json(model)
    )
    print(
        f"selfboost: j0={trace.j0} rounds={len(trace.rounds)} "
        f"termination={trace.termination} final_adv={trace.final_advantage:.6g}"
    )
    return 0


def make_compile_hook(p, family):
    """Compile and equivalence-check each round's first boost as a circuit.

    The analytic table remains the source of truth across rounds; this
    hook rebuilds the round's first boosting step, compiles the model
    and distinguisher into circuits, assembles the boosted circuit, and
    asserts its scheduled outputs against the analytic conditionals.
    Rounds with no boosts (or instances beyond the cap) report False.
    """

    def hook(record, prev_model, steps) -> bool:
        if not steps:
            return False
        size, n = p.alphabet.size, p.n
        if size**n > COMPILE_ENUM_CAP:
            return False
        start = prev_model if prev_model is not None else uniform_text(p.alphabet, p.n)
        first = steps[0]
        res = boost_text(p, start, family[first.member_index])
        q = lm_to_rnn(text_to_lm(start), 2)
        d_circ = distinguisher_to_rnn(res.applied, p.alphabet, 2)
        graph, _ = build_boosted_rnn(
            q, d_circ, res.applied.k, res.alpha, res.offset, size
        )
        docs = token_strings(size, n)
        outs = engine_run(graph, docs).output_at_multiples()
        got = np.stack([outs[i] for i in range(1, n + 1)])
        # (document, position) pairs whose gap is not within 1e-9, NaN included
        bad = ~(np.abs(got - res.lm_boosted.conditionals()) <= 1e-9).T
        if bad.any():
            col, i = divmod(int(np.argmax(bad)), n)
            doc = tuple(docs[:, col].tolist())
            raise NtpboostError(
                f"compiled round diverged from analytic boost at "
                f"prefix {doc[:i]}, token {doc[i]}"
            )
        return True

    return hook


def cmd_verify(args) -> int:
    results = run_all()
    width = max(len(r.name) for r in results)
    all_ok = True
    for r in results:
        mark = "PASS" if r.ok else "FAIL"
        all_ok = all_ok and bool(r.ok)
        print(f"{r.name:<{width}}  {mark}  {r.detail}")
    if args.out:
        nio.write_json_atomic(
            _out_path(args, "verify_matrix.json"),
            {
                "all_ok": all_ok,
                "checks": [
                    {"name": r.name, "ok": r.ok, "detail": r.detail} for r in results
                ],
            },
        )
    return 0 if all_ok else 1


def cmd_report(args) -> int:
    rounds = nio.field(nio.read_json(args.trace), "rounds", list, args.trace)
    for j, r in enumerate(rounds):
        for key, kind in ROUND_FIELDS.items():
            nio.field(r, key, kind, f"{args.trace}/rounds/{j}")
    nio.write_text_atomic(_out_path(args, "rounds.csv"), _rounds_csv(rounds))
    print(f"report: wrote {len(rounds)} rounds")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ntpboost",
        description="Exact desk-scale boosting, circuit compilation, and "
        "verification for next-token models.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="default RNG seed")
    common.add_argument("--out", default="out", help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("boost", help="apply one analytic boosting step", parents=[common])
    b.add_argument("--train", required=True, help="training distribution JSON")
    b.add_argument("--model", required=True, help="model distribution JSON")
    b.add_argument("--distinguisher", required=True)
    b.set_defaults(fn=cmd_boost)

    c = sub.add_parser("construct", help="compile the boosted circuit", parents=[common])
    c.add_argument("--model", required=True, help="model circuit JSON")
    c.add_argument("--distinguisher", required=True, help="distinguisher circuit JSON")
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--alpha", type=float, required=True)
    c.add_argument("--offset", type=int, default=0)
    c.set_defaults(fn=cmd_construct)

    s = sub.add_parser("simulate", help="run a circuit on a token stream", parents=[common])
    s.add_argument("--graph", required=True)
    s.add_argument("--input", required=True, help="comma-separated tokens")
    s.add_argument("--quantized", action="store_true")
    s.set_defaults(fn=cmd_simulate)

    sb = sub.add_parser("selfboost", help="run the loss-minimization loop", parents=[common])
    sb.add_argument("--config", required=True)
    sb.add_argument("--compile", action="store_true")
    sb.set_defaults(fn=cmd_selfboost)

    v = sub.add_parser("verify", help="run the brute-force oracle suite", parents=[common])
    v.set_defaults(fn=cmd_verify)

    r = sub.add_parser("report", help="emit plot-ready CSV from a trace", parents=[common])
    r.add_argument("--trace", required=True)
    r.set_defaults(fn=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except NtpboostError as e:
        print(
            json.dumps({"error": type(e).__name__, "message": str(e)}),
            file=sys.stderr,
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
