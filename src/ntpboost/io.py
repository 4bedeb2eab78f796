"""File formats, loaders, and validators.

JSON schemas (frozen in docs/formats.md):

  distribution   {"alphabet_size": int, "n": int, "probs": [float, ...]}
                 lexicographic document order; sums to 1 within 1e-9
  distinguisher  {"kind": "table", "k": int, "n": int, "default": 0,
                  "entries": {"<i>:<tokens>": bit, ...}}   keys are the
                 position and the full x_{:i+k} token string, or
                 {"kind": "rnn", "k": int, "n": int, "graph": {...}}
  graph          {"nodes": [{"id", "init", "expr"}, ...], "input_ids",
                  "output_id", "hidden_ids", "rnn_time", "meta"}
                 expressions are s-expression strings; edges are implicit
  config         {"command": ..., "seed": int, ...} per subcommand

Loaders re-validate every module invariant and report failures with a
JSON-pointer-like location.
"""

from __future__ import annotations

import json
import math
import os
import sys
import tempfile
from typing import Any

import numpy as np

from .dist import Alphabet, TextDistribution, token_strings
from .distinguishers import (
    Distinguisher,
    set_keys,
    table_distinguisher,
    table_shapes,
)
from .errors import FormatError, NtpboostError
from .rnn.expr import from_sexpr, to_sexpr
from .rnn.graph import NodeSpec, RnnGraph

DIST_NORM_ATOL = 1e-9


# ---------------------------------------------------------------------------
# generic helpers


def read_json(path: str) -> Any:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise FormatError(f"no such file: {path}")
    except json.JSONDecodeError as e:
        raise FormatError(f"invalid JSON in {path}: {e}", location=f"line {e.lineno}")


def write_json_atomic(path: str, payload: Any) -> None:
    """Serialize deterministically and replace the target atomically."""
    write_text_atomic(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def write_text_atomic(path: str, text: str) -> None:
    """Write ``text`` to a temporary file beside ``path``, then replace it."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _require(obj: dict, key: str, location: str):
    if key not in obj:
        raise FormatError(f"missing field {key!r}", location=location)
    return obj[key]


def _number(obj: dict, key: str, location: str, integer: bool = False):
    """The JSON number under ``key``: a finite float, or an int when ``integer``."""
    where = f"{location}/{key}"
    value = _require(obj, key, where)
    if integer and type(value) is int:
        return value
    if not integer and type(value) in (int, float) and abs(value) <= sys.float_info.max:
        return float(value)
    kind = "an integer" if integer else "a finite number"
    raise FormatError(f"{key} must be {kind}, got {value!r}", where)


# ---------------------------------------------------------------------------
# distributions


def distribution_to_json(text: TextDistribution) -> dict:
    return {
        "alphabet_size": text.alphabet.size,
        "n": text.n,
        "probs": [float(v) for v in text.probs],
    }


def distribution_from_json(obj: dict, location: str = "") -> TextDistribution:
    size = _require(obj, "alphabet_size", location + "/alphabet_size")
    n = _require(obj, "n", location + "/n")
    raw = _require(obj, "probs", location + "/probs")
    if not isinstance(size, int) or size < 1:
        raise FormatError("alphabet_size must be a positive integer",
                          location + "/alphabet_size")
    if not isinstance(n, int) or n < 1:
        raise FormatError("n must be a positive integer", location + "/n")
    arr = np.asarray(raw, dtype=np.float64)
    for j, v in enumerate(arr):
        if not math.isfinite(v):
            raise FormatError("non-finite probability", f"{location}/probs/{j}")
        if v < 0:
            raise FormatError(f"negative probability {v}", f"{location}/probs/{j}")
    total = float(arr.sum())
    if abs(total - 1.0) > DIST_NORM_ATOL:
        raise FormatError(
            f"probs sum to {total:.12g}, expected 1 within {DIST_NORM_ATOL}",
            location + "/probs",
        )
    arr = arr / total  # land exactly on the library's tighter tolerance
    try:
        return TextDistribution(Alphabet(size), n, arr)
    except NtpboostError as e:
        raise FormatError(str(e), location) from e


# ---------------------------------------------------------------------------
# graphs


def graph_to_json(graph: RnnGraph) -> dict:
    meta = {
        k: v
        for k, v in graph.meta.items()
        if isinstance(v, (int, float, str, bool, list, tuple, dict, type(None)))
    }
    meta.pop("domain_checks", None)
    return {
        "nodes": [
            {
                "id": n.name,
                "init": n.init,
                "expr": None if n.expr is None else to_sexpr(n.expr),
            }
            for n in graph.nodes
        ],
        "input_ids": list(graph.input_ids),
        "output_id": graph.output_id,
        "hidden_ids": list(graph.hidden_ids),
        "rnn_time": graph.rnn_time,
        "meta": meta,
    }


def graph_from_json(obj: dict, location: str = "") -> RnnGraph:
    nodes = []
    for j, spec in enumerate(_require(obj, "nodes", location + "/nodes")):
        loc = f"{location}/nodes/{j}"
        name = _require(spec, "id", loc)
        init = _number(spec, "init", loc)
        raw = spec.get("expr")
        try:
            expr = None if raw is None else from_sexpr(raw)
        except NtpboostError as e:
            raise FormatError(f"bad expression for {name!r}: {e}", loc + "/expr")
        nodes.append(NodeSpec(name, init, expr))
    try:
        graph = RnnGraph(
            nodes=nodes,
            input_ids=tuple(_require(obj, "input_ids", location + "/input_ids")),
            output_id=_require(obj, "output_id", location + "/output_id"),
            hidden_ids=tuple(_require(obj, "hidden_ids", location + "/hidden_ids")),
            rnn_time=_number(obj, "rnn_time", location, integer=True),
            meta=dict(obj.get("meta", {})),
        )
    except NtpboostError as e:
        raise FormatError(str(e), location) from e
    return graph


# ---------------------------------------------------------------------------
# distinguishers


def _entry_key(i: int, tokens) -> str:
    return f"{i}:" + "".join(str(t) for t in tokens)


def _parse_entry_key(key: str, location: str) -> tuple[int, tuple[int, ...]]:
    try:
        pos, toks = key.split(":", 1)
        return int(pos), tuple(int(c) for c in toks)
    except ValueError:
        raise FormatError(f"bad entry key {key!r}", location)


def distinguisher_to_json(d: Distinguisher, alphabet: Alphabet) -> dict:
    """Write the set bits of d's tables over (i, x_{:i+k}) in the file format."""
    entries = {_entry_key(i, joint): 1 for i, joint in set_keys(d, alphabet.size)}
    return {"kind": "table", "k": d.k, "n": d.n, "default": 0, "entries": entries}


def distinguisher_from_json(
    obj: dict, alphabet: Alphabet, location: str = ""
) -> Distinguisher:
    kind = _require(obj, "kind", location + "/kind")
    k = int(_require(obj, "k", location + "/k"))
    n = int(_require(obj, "n", location + "/n"))
    if kind == "table":
        default = int(obj.get("default", 0))
        if default not in (0, 1):
            raise FormatError("default must be a bit", location + "/default")
        entries = {}
        for key, bit in _require(obj, "entries", location + "/entries").items():
            loc = f"{location}/entries/{key}"
            if bit not in (0, 1):
                raise FormatError(f"entry value {bit!r} is not a bit", loc)
            i, tokens = _parse_entry_key(key, loc)
            if not 1 <= i <= n:
                raise FormatError(f"position {i} outside [1, {n}]", loc)
            if len(tokens) != min(i - 1 + k, n):
                raise FormatError(
                    f"key length {len(tokens)} != |x_(:i+k)| = {min(i - 1 + k, n)}",
                    loc,
                )
            if any(not 0 <= t < alphabet.size for t in tokens):
                raise FormatError("token outside alphabet", loc)
            entries[(i, tokens)] = bit
        return table_distinguisher(k, n, entries, default=default, keyed_on="full")
    if kind == "rnn":
        graph = graph_from_json(
            _require(obj, "graph", location + "/graph"), location + "/graph"
        )
        return distinguisher_from_graph(graph, k, n)
    raise FormatError(f"unknown distinguisher kind {kind!r}", location + "/kind")


def distinguisher_from_graph(graph: RnnGraph, k: int, n: int) -> Distinguisher:
    """Evaluate a trailing-window circuit as an analytic distinguisher.

    d(i, x) feeds x_{:i-1+k} (zero-padded past the document end, which a
    clipping-aware circuit ignores) and reads the output after the last
    token's window.  The tables take one batched run per position.
    """
    from .rnn.engine import compile_graph, run

    program = compile_graph(graph)

    def bits(i: int, streams: np.ndarray) -> np.ndarray:
        """d(i, .) on each column of ``streams``, the strings x_{:i-1+kc}."""
        m = i - 1 + k
        padded = np.zeros((m, streams.shape[1]))
        padded[: len(streams)] = streams
        tr = run(graph, padded, program=program)
        out = tr.value(graph.output_id, m * graph.rnn_time)
        bad = (out != 0.0) & (out != 1.0)
        if bad.any():
            j = int(np.argmax(bad))
            stream = tuple(int(t) for t in padded[:, j])
            raise FormatError(
                f"circuit distinguisher emitted non-bit {out[j]} on {stream}"
            )
        return out.astype(np.uint8)

    def pred(i, prefix, window):
        stream = np.array(tuple(prefix) + tuple(window), dtype=float)
        return int(bits(i, stream[:, None])[0])

    def tabulate(size: int) -> list[np.ndarray]:
        return [
            bits(i, token_strings(size, i - 1 + min(k, n - i + 1))).reshape(shape)
            for i, shape in enumerate(table_shapes(k, n, size), 1)
        ]

    return Distinguisher(k, n, pred, tabulate)


# ---------------------------------------------------------------------------
# load-and-validate front end

_KINDS = {"distribution", "distinguisher", "graph", "config"}


def load_and_validate(path: str, kind: str, alphabet: Alphabet | None = None):
    """Typed loader used by the CLI; every invariant checked at load."""
    if kind not in _KINDS:
        raise FormatError(f"unknown artifact kind {kind!r}")
    obj = read_json(path)
    if kind == "distribution":
        return distribution_from_json(obj, location=path)
    if kind == "graph":
        return graph_from_json(obj, location=path)
    if kind == "distinguisher":
        if alphabet is None:
            raise FormatError(
                "loading a distinguisher needs the alphabet argument; the "
                "format does not store the alphabet size",
                location=path,
            )
        return distinguisher_from_json(obj, alphabet, location=path)
    return obj
