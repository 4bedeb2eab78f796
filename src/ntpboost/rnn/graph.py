"""Recurrent circuit graphs: nodes, transition expressions, hidden sets.

A graph is a list of named nodes with initial values; non-input nodes
carry a transition expression over their incoming neighbors' previous
values.  ``RnnGraph`` states which graphs are in the RNN class.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ValidationError
from .expr import Expr, depth, free_nodes

DEFAULT_DEPTH_BOUND = 24


@dataclass(frozen=True)
class NodeSpec:
    name: str
    init: float
    expr: Expr | None  # None exactly for input nodes


@dataclass
class RnnGraph:
    """Tuple of Def.-2 data: graph, inputs, output, transitions, time, hidden.

    The RNN class the loss is minimized over: graphs that pass
    ``validate`` (hidden nodes read only input and hidden nodes) and fit
    the size, hidden and time budgets of ``selfboost.Schedule``
    (``SizeState.fits``).  A stricter definition belongs in ``validate``.

    ``meta`` carries the output schedule and construction parameters;
    recognized keys include ``schedule`` ("multiples" means the output is
    read at integer multiples of ``rnn_time``), ``reset_on_advance``
    (node names zeroed whenever the input pointer advances), and
    ``domain_checks`` (runtime value-set assertions, (node, values)
    pairs).  ``validate`` checks every key the engine reads: those two,
    and ``depth_bound`` and ``alphabet_size`` (positive integers).
    """

    nodes: list[NodeSpec]
    input_ids: tuple[str, ...]
    output_id: str
    hidden_ids: tuple[str, ...]
    rnn_time: int
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.input_ids = tuple(self.input_ids)
        self.hidden_ids = tuple(self.hidden_ids)
        self.validate()

    @property
    def size(self) -> int:
        return len(self.nodes)

    @property
    def hidden_size(self) -> int:
        return len(self.hidden_ids)

    def node_map(self) -> dict[str, NodeSpec]:
        return {n.name: n for n in self.nodes}

    def validate(self) -> None:
        names = [n.name for n in self.nodes]
        if len(set(names)) != len(names):
            dup = sorted({x for x in names if names.count(x) > 1})
            raise ValidationError(f"duplicate node names {dup}")
        name_set = set(names)
        inputs = set(self.input_ids)
        hidden = set(self.hidden_ids)
        if not inputs <= name_set:
            raise ValidationError(f"unknown input nodes {inputs - name_set}")
        if not hidden <= name_set:
            raise ValidationError(f"unknown hidden nodes {hidden - name_set}")
        if self.output_id not in name_set:
            raise ValidationError(f"unknown output node {self.output_id!r}")
        if inputs & hidden:
            raise ValidationError("input nodes cannot be hidden nodes")
        if self.rnn_time < 1:
            raise ValidationError(f"rnn_time must be >= 1, got {self.rnn_time}")
        self._validate_meta(name_set)
        bound = self.meta.get("depth_bound", DEFAULT_DEPTH_BOUND)
        for n in self.nodes:
            if n.name in inputs:
                if n.expr is not None:
                    raise ValidationError(f"input node {n.name!r} has an expression")
                continue
            if not isinstance(n.expr, Expr):
                raise ValidationError(f"non-input node {n.name!r} lacks an expression")
            refs = free_nodes(n.expr)
            missing = refs - name_set
            if missing:
                raise ValidationError(
                    f"node {n.name!r} reads unknown nodes {sorted(missing)}"
                )
            if depth(n.expr) > bound:
                raise ValidationError(
                    f"node {n.name!r} expression depth {depth(n.expr)} exceeds "
                    f"declared bound {bound}"
                )
            if n.name in hidden:
                illegal = refs - inputs - hidden
                if illegal:
                    raise ValidationError(
                        f"hidden node {n.name!r} reads non-hidden, non-input "
                        f"nodes {sorted(illegal)}"
                    )

    def _validate_meta(self, names: set[str]) -> None:
        for key in ("depth_bound", "alphabet_size"):
            value = self.meta.get(key, 1)
            if type(value) is not int or value < 1:
                raise ValidationError(
                    f"meta.{key} must be a positive integer, got {value!r:.40}"
                )
        reset = self.meta.get("reset_on_advance", [])
        pairs = self.meta.get("domain_checks", [])
        seq = (list, tuple)
        if not (isinstance(reset, seq) and isinstance(pairs, seq) and all(
            isinstance(p, seq) and len(p) == 2 and isinstance(p[1], seq)
            and all(type(v) in (int, float) for v in p[1]) for p in pairs
        )):
            raise ValidationError("meta.reset_on_advance must list node names and "
                                  "meta.domain_checks (node, numbers) pairs")
        named = [*reset, *(p[0] for p in pairs)]
        unknown = [x for x in named if not (isinstance(x, str) and x in names)]
        if unknown:
            raise ValidationError(f"meta names nodes the graph lacks: {unknown!r:.80}")

    def with_meta(self, **extra) -> "RnnGraph":
        meta = dict(self.meta)
        meta.update(extra)
        return RnnGraph(
            nodes=list(self.nodes),
            input_ids=self.input_ids,
            output_id=self.output_id,
            hidden_ids=self.hidden_ids,
            rnn_time=self.rnn_time,
            meta=meta,
        )
