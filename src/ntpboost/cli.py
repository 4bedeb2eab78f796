"""Command-line front end: boost, construct, simulate, selfboost, verify, report.

Every run is deterministic given its arguments and seed; artifacts are
written atomically and serialized with sorted keys so reruns are
byte-identical.  Errors leave a machine-readable JSON object on stderr
and a nonzero exit status.
"""

from __future__ import annotations

import argparse
import csv
import decimal
import io as _io
import json
import os
import random
import sys

import numpy as np

from . import io as nio
from .boosting import boost_text
from .construct import build_boosted_rnn, distinguisher_to_rnn, lm_to_rnn
from .dist import text_to_lm, token_strings, uniform_text
from .errors import FormatError, NtpboostError, ValidationError
from .families import one_prefix_table_family
from .fixedpoint import FixedPointFormat, quantized_run
from .rnn.engine import run as engine_run
from .selfboost import run_algorithm
from .verify import run_all

ROUND_CSV_COLUMNS = ["round", "N_i", "H_i", "T_i", "L_i", "KL", "alpha"]


def _out_path(args, name: str) -> str:
    return os.path.join(args.out, name)


def cmd_boost(args) -> int:
    p = nio.load_and_validate(args.train, "distribution")
    q = nio.load_and_validate(args.model, "distribution")
    d = nio.load_and_validate(args.distinguisher, "distinguisher", p.alphabet)
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
    q = nio.load_and_validate(args.model, "graph")
    d = nio.load_and_validate(args.distinguisher, "graph")
    if "alphabet_size" not in q.meta:
        raise FormatError(
            "missing field 'alphabet_size'", location=f"{args.model}/meta"
        )
    base = int(q.meta["alphabet_size"])
    graph, report = build_boosted_rnn(q, d, args.k, args.alpha, args.offset, base)
    nio.write_json_atomic(_out_path(args, "boosted_graph.json"), nio.graph_to_json(graph))
    nio.write_json_atomic(
        _out_path(args, "construction_report.json"),
        {
            "built_size": report.built_size,
            "built_hidden": report.built_hidden,
            "built_time": report.built_time,
            "formula_size": report.formula_size,
            "formula_hidden": report.formula_hidden,
            "formula_time": report.formula_time,
            "equivalence_checked": report.equivalence_checked,
        },
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
            tokens.append(float(tok))
        except ValueError:
            raise ValidationError(
                f"--input token {pos} is not a number: {tok!r}"
            ) from None
    return tokens


def cmd_simulate(args) -> int:
    graph = nio.load_and_validate(args.graph, "graph")
    stream = np.array(_parse_tokens(args.input))
    if args.quantized:
        bits = graph.meta.get("bits")
        if bits is None:
            raise NtpboostError(
                "--quantized requires a graph with a bits block in meta"
            )
        fmt = FixedPointFormat(int(bits["integer"]), int(bits["fraction"]))
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


def _family_from_config(cfg, alphabet, n):
    spec = cfg.get("family", {"kind": "one_prefix_table"})
    kind = spec.get("kind", "one_prefix_table")
    if kind == "one_prefix_table":
        return one_prefix_table_family(alphabet, n, int(cfg["k"]))
    raise NtpboostError(f"unknown family kind {kind!r}")


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
    return {
        "variant": trace.variant,
        "j0": trace.j0,
        "epsilon": trace.epsilon,
        "k": trace.k,
        "termination": trace.termination,
        "final_round_index": trace.final_round_index,
        "final_advantage": trace.final_advantage,
        "minimizer": "constructive best-distinguisher boosting over the family",
        "rounds": [
            {
                "index": r.index,
                "budget_size": r.budget_size,
                "budget_hidden": r.budget_hidden,
                "budget_time": _exact_decimal(r.budget_time),
                "loss": r.loss,
                "kl": r.kl,
                "boosts": r.boosts,
                "best_advantage": r.best_advantage,
                "certified": r.certified,
                "exhausted": r.exhausted,
                "compiled": r.compiled,
            }
            for r in trace.rounds
        ],
    }


def cmd_selfboost(args) -> int:
    cfg = nio.read_json(args.config)
    dist_path = cfg["distribution_file"]
    if not os.path.isabs(dist_path):
        dist_path = os.path.join(os.path.dirname(os.path.abspath(args.config)), dist_path)
    p = nio.load_and_validate(dist_path, "distribution")
    fam = _family_from_config(cfg, p.alphabet, p.n)
    seed = int(cfg.get("seed", args.seed))
    want_compile = bool(cfg.get("compile")) or args.compile
    compile_hook = make_compile_hook(p, fam) if want_compile else None
    model, trace = run_algorithm(
        cfg.get("variant", "plain"),
        p,
        fam,
        float(cfg["epsilon"]),
        int(cfg["k"]),
        int(cfg.get("tau", 3)),
        int(cfg.get("d_bound", 7)),
        random.Random(seed),
        b_d=int(cfg.get("b_d", 0)),
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


def make_compile_hook(p, family, enum_cap: int = 1 << 14):
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
        if size**n > enum_cap:
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
    payload = nio.read_json(args.trace)
    nio.write_text_atomic(
        _out_path(args, "rounds.csv"), _rounds_csv(payload["rounds"])
    )
    print(f"report: wrote {len(payload['rounds'])} rounds")
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
