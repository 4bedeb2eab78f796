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

Every JSON value read, CLI configs and traces included, goes through
``checked`` and ``field``; a wrong type, or a value outside the domain
given to ``field``, is a ``FormatError`` naming its JSON-pointer-like
location.  Loaders re-validate every module invariant.
"""

from __future__ import annotations

import json
import math
import os
import re
import sys
import tempfile
from dataclasses import dataclass
from typing import Any

import numpy as np

from .dist import Alphabet, TextDistribution, token_strings
from .distinguishers import (
    Distinguisher,
    set_keys,
    table_distinguisher,
    table_key_fault,
    table_shapes,
)
from .errors import FormatError, NtpboostError, ValidationError
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
    """Serialize deterministically and replace the target atomically.

    NaN and infinities are not JSON, so a payload holding one is refused.
    """
    try:
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as e:
        raise ValidationError(f"cannot write {path}: {e}") from None
    write_text_atomic(path, text + "\n")


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


_KIND_NAMES = {int: "an integer", float: "a finite number", str: "a string",
               bool: "true or false", list: "a list", dict: "an object"}
_REQUIRED = object()


def checked(value, kind: type, location: str):
    """``value`` if it is a JSON value of ``kind``, else a ``FormatError``.

    ``kind`` is one of int (never a bool), float (any finite JSON number,
    returned as a float), str, bool, list or dict.
    """
    if kind is float:
        if type(value) in (int, float) and abs(value) <= sys.float_info.max:
            return float(value)
    elif type(value) is kind:
        return value
    raise FormatError(f"expected {_KIND_NAMES[kind]}, got {value!r:.40}", location)


@dataclass(frozen=True)
class Between:
    """The numbers from ``low`` to ``high``, both ends excluded when ``open``."""

    low: float
    high: float = math.inf
    open: bool = False

    def __contains__(self, value) -> bool:
        if self.open:
            return self.low < value < self.high
        return self.low <= value <= self.high

    def __str__(self) -> str:
        if self.open:
            return f"a number in ({self.low}, {self.high})"
        if self.high == math.inf:
            return f"at least {self.low}"
        return f"from {self.low} to {self.high}"


def field(obj, key: str, kind: type, location: str, default=_REQUIRED, allowed=None):
    """``obj[key]`` checked as ``kind``, where ``obj`` is the object at ``location``.

    A missing key gives ``default``; without one it is a ``FormatError``.
    ``allowed``, when given, is the value's domain: a ``Between`` or a
    tuple of the allowed values.
    """
    where = f"{location}/{key}"
    if key in checked(obj, dict, location):
        value = checked(obj[key], kind, where)
        if allowed is None or value in allowed:
            return value
        domain = allowed if isinstance(allowed, Between) else (
            "one of " + ", ".join(map(repr, allowed)))
        raise FormatError(f"expected {domain}, got {value!r:.40}", where)
    if default is _REQUIRED:
        raise FormatError(f"missing field {key!r}", where)
    return default


# ---------------------------------------------------------------------------
# distributions


def distribution_to_json(text: TextDistribution) -> dict:
    return {
        "alphabet_size": text.alphabet.size,
        "n": text.n,
        "probs": [float(v) for v in text.probs],
    }


def distribution_from_json(obj, location: str = "") -> TextDistribution:
    size = field(obj, "alphabet_size", int, location, allowed=Between(1))
    n = field(obj, "n", int, location, allowed=Between(1))
    probs = []
    for j, v in enumerate(field(obj, "probs", list, location)):
        probs.append(checked(v, float, f"{location}/probs/{j}"))
        if probs[-1] < 0:
            raise FormatError(f"negative probability {v}", f"{location}/probs/{j}")
    arr = np.array(probs, dtype=np.float64)
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


def graph_from_json(obj, location: str = "") -> RnnGraph:
    nodes = []
    for j, spec in enumerate(field(obj, "nodes", list, location)):
        loc = f"{location}/nodes/{j}"
        name = field(spec, "id", str, loc)
        init = field(spec, "init", float, loc)
        raw = spec.get("expr")
        try:
            expr = None if raw is None else from_sexpr(raw)
        except NtpboostError as e:
            raise FormatError(f"bad expression for {name!r}: {e}", loc + "/expr")
        nodes.append(NodeSpec(name, init, expr))

    def names(key: str) -> tuple[str, ...]:
        ids = field(obj, key, list, location)
        return tuple(checked(v, str, f"{location}/{key}/{j}") for j, v in enumerate(ids))

    try:  # a FormatError from a field is already located: it passes through
        return RnnGraph(
            nodes=nodes,
            input_ids=names("input_ids"),
            output_id=field(obj, "output_id", str, location),
            hidden_ids=names("hidden_ids"),
            rnn_time=field(obj, "rnn_time", int, location),
            meta=dict(field(obj, "meta", dict, location, default={})),
        )
    except ValidationError as e:
        raise FormatError(str(e), location) from e


# ---------------------------------------------------------------------------
# distinguishers


def _entry_key(i: int, tokens) -> str:
    return f"{i}:" + "".join(str(t) for t in tokens)


def _parse_entry_key(key: str, location: str) -> tuple[int, tuple[int, ...]]:
    """``<position>:<tokens>`` in ASCII digits; ``int`` alone takes " 1" or "0_1"."""
    if not re.fullmatch("[0-9]+:[0-9]*", key):
        raise FormatError(f"bad entry key {key!r}", location)
    pos, toks = key.split(":")
    return int(pos), tuple(int(c) for c in toks)


def distinguisher_to_json(d: Distinguisher, alphabet: Alphabet) -> dict:
    """Write the set bits of d's tables over (i, x_{:i+k}) in the file format."""
    if alphabet.size > 10:  # a key spells each token as one digit
        raise ValidationError(
            f"table-form tokens are single digits; |Sigma| = {alphabet.size} > 10"
        )
    entries = {_entry_key(i, joint): 1 for i, joint in set_keys(d, alphabet.size)}
    return {"kind": "table", "k": d.k, "n": d.n, "default": 0, "entries": entries}


def distinguisher_from_json(obj, alphabet: Alphabet, location: str = "") -> Distinguisher:
    kind = field(obj, "kind", str, location)
    n = field(obj, "n", int, location, allowed=Between(1))
    k = field(obj, "k", int, location, allowed=Between(1, n))
    if kind == "table":
        default = field(obj, "default", int, location, default=0, allowed=(0, 1))
        entries = {}
        for key, bit in field(obj, "entries", dict, location).items():
            loc = f"{location}/entries/{key}"
            if checked(bit, int, loc) not in (0, 1):
                raise FormatError(f"entry value {bit!r} is not a bit", loc)
            entry = _parse_entry_key(key, loc)
            fault = table_key_fault(entry, k, n, alphabet.size)
            if fault is not None:
                raise FormatError(fault, loc)
            entries[entry] = bit
        return table_distinguisher(k, n, entries, default=default, keyed_on="full")
    if kind == "rnn":
        where = location + "/graph"
        graph = graph_from_json(field(obj, "graph", dict, location), where)
        for key, want in (("k", k), ("n", n), ("alphabet_size", alphabet.size)):
            got = field(graph.meta, key, int, where + "/meta", want)
            if got != want:
                raise FormatError(
                    f"circuit has {key} {got}, not {want}", f"{where}/meta/{key}"
                )
        return distinguisher_from_graph(graph, k, n)
    raise FormatError(f"unknown distinguisher kind {kind!r}", location + "/kind")


def distinguisher_from_graph(graph: RnnGraph, k: int, n: int) -> Distinguisher:
    """Tabulate a trailing-window circuit as a distinguisher.

    D_i[x_{:i-1+kc}] feeds x_{:i-1+k} (zero-padded past the document end,
    which a clipping-aware circuit ignores) and reads the output after
    the last token's window: one batched run per position.
    """
    from .rnn.engine import compile_graph, run

    program = compile_graph(graph)

    def tabulate(size: int) -> list[np.ndarray]:
        tables = []
        for i, shape in enumerate(table_shapes(k, n, size), 1):
            m = i - 1 + k
            strings = token_strings(size, i - 1 + min(k, n - i + 1))
            padded = np.zeros((m, strings.shape[1]))
            padded[: len(strings)] = strings
            tr = run(graph, padded, program=program)
            out = tr.value(graph.output_id, m * graph.rnn_time)
            bad = (out != 0.0) & (out != 1.0)
            if bad.any():
                j = int(np.argmax(bad))
                stream = tuple(int(t) for t in padded[:, j])
                raise FormatError(
                    f"circuit distinguisher emitted non-bit {out[j]} on {stream}"
                )
            tables.append(out.reshape(shape))
        return tables

    return Distinguisher(k, n, tabulate)
