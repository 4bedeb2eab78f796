"""The compile layer builds acyclic objects, with the cyclic collector paused.

Reference counting alone must free everything a build, a compile, a run
or a graph load makes: after a circuit is dropped no cyclic garbage is
left and the intern tables are back to their sizes.  These tests run
with the collector disabled (``collector_off``), so a cycle cannot be
freed behind their back.  The builders and ``compile_graph`` run with
the collector paused, and leave its enabled state as they found it.
"""

import gc
import inspect
import sys

import pytest

from ntpboost import io as nio
from ntpboost import verify
from ntpboost.boosting import boost_text
from ntpboost.construct import (
    build_boosted_rnn,
    build_boosted_rnn_simple,
    distinguisher_to_rnn,
    lm_to_rnn,
)
from ntpboost.dist import Alphabet, lm_to_text, text_to_lm, token_strings
from ntpboost.errors import FormatError, PreconditionError, ValidationError
from ntpboost.fixedpoint import (
    FixedPointFormat,
    build_boosted_rnn_quantized,
    minimal_fraction_bits,
    quantized_run,
)
from ntpboost.instances import dyadic_lm, random_prefix_window_distinguisher, random_text, rng_for
from ntpboost.rnn import expr as X
from ntpboost.rnn.engine import compile_graph, run
from ntpboost.rnn.graph import NodeSpec, RnnGraph


@pytest.fixture
def collector_off():
    """Collect once, then keep the collector disabled for the test."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def raised(exc_type, fn, *args) -> str:
    """The message of the ``exc_type`` that ``fn(*args)`` raises.

    The exception is dropped on return; a test that kept it (as
    ``pytest.raises`` does) would hold its traceback, whose frames hold
    the test's locals, in a cycle.
    """
    try:
        fn(*args)
    except exc_type as e:
        return str(e)
    raise AssertionError(f"{fn.__name__} raised no {exc_type.__name__}")


def table_instance(size, n, k, seed):
    alphabet = Alphabet(size)
    rng = rng_for(seed)
    p, qt = random_text(alphabet, n, rng), random_text(alphabet, n, rng)
    res = boost_text(p, qt, random_prefix_window_distinguisher(alphabet, n, k, rng))
    return alphabet, text_to_lm(qt), res


def quantized_instance():
    # the instance of verify's quantized-boost check
    rng = rng_for(1061)
    n, k, ell = 4, 1, 1 / 8
    p = random_text(Alphabet(2), n, rng)
    lm = dyadic_lm(Alphabet(2), n, rng, frac_bits=14, min_conditional=ell)
    res = boost_text(p, lm_to_text(lm), random_prefix_window_distinguisher(Alphabet(2), n, k, rng))
    bf = max(minimal_fraction_bits(k, res.alpha, ell), 14)
    return lm, res, (FixedPointFormat(20, bf), FixedPointFormat(2, 8), ell)


# kind -> (alphabet size, n); the boosted kinds use the |Sigma| = 2 instance
KINDS = {
    "q2": (2, 4),
    "d2": (2, 4),
    "q3": (3, 3),
    "d3": (3, 3),
    "efficient": (2, 4),
    "doubling": (2, 4),
    "quantized": (2, 4),
}


def build(kind, inputs):
    """The circuit of one kind, and its fixed-point format or None.

    Every expression of the circuit is built here, from analytic inputs.
    """
    if kind == "quantized":
        lm, res, formats = inputs
        q, d = lm_to_rnn(lm, 2), distinguisher_to_rnn(res.applied, Alphabet(2), 2)
        out = build_boosted_rnn_quantized(q, d, 1, res.alpha, res.offset, 2, *formats)
        return out.graph, out.format
    alphabet, lm, res = inputs
    if kind.startswith("q"):
        return lm_to_rnn(lm, 2), None
    d = distinguisher_to_rnn(res.applied, alphabet, 2)
    if kind.startswith("d"):
        return d, None
    args = (lm_to_rnn(lm, 2), d, 2, res.alpha, res.offset, alphabet.size)
    if kind == "efficient":
        return build_boosted_rnn(*args)[0], None
    return build_boosted_rnn_simple(*args), None


def use(kind, inputs) -> None:
    """Build, compile, run and round-trip one circuit, keeping nothing."""
    graph, fmt = build(kind, inputs)
    program = compile_graph(graph)
    docs = token_strings(*KINDS[kind])
    run(graph, docs, program=program)
    if fmt is not None:
        quantized_run(graph, fmt, docs, program=program)
    loaded = nio.graph_from_json(nio.graph_to_json(graph))
    assert nio.graph_to_json(loaded) == nio.graph_to_json(graph)
    assert compile_graph(loaded).tape == program.tape


def table_size() -> int:
    return len(X._INTERNED)


def assert_freed(before: int) -> None:
    """Reference counting alone freed everything, and no cycle is left."""
    assert table_size() == before
    assert gc.collect() == 0


class TestDroppedCircuitsAreFreed:
    @pytest.mark.parametrize("kind", KINDS)
    def test_build_compile_run_round_trip(self, collector_off, kind):
        if kind == "quantized":
            inputs = quantized_instance()
        else:
            inputs = table_instance(*KINDS[kind], 2, 1039)
        before = table_size()
        use(kind, inputs)
        assert_freed(before)

    def test_builds_add_their_pinned_intern_entries(self, collector_off):
        # construction cost that does not depend on machine speed: a fast
        # path that made extra objects would hold extra entries here
        alphabet, lm, res = table_instance(2, 4, 2, 1039)
        q, d = lm_to_rnn(lm, 2), distinguisher_to_rnn(res.applied, alphabet, 2)
        args = (q, d, 2, res.alpha, res.offset, 2)
        before = table_size()
        efficient, _ = build_boosted_rnn(*args)
        with_efficient = table_size()
        doubling = build_boosted_rnn_simple(*args)
        with_both = table_size()
        # one table: node entries and gadget entries together
        assert with_efficient - before == 864
        assert with_both - with_efficient == 706
        del efficient, doubling
        assert_freed(before)

    def test_malformed_expression(self, collector_off):
        graph = lm_to_rnn(uniform_model(), 2)
        obj = nio.graph_to_json(graph)
        obj["nodes"][-1]["expr"] = obj["nodes"][-1]["expr"][:-1] + " (1.0 (bogus 1.0)))"
        before = table_size()
        assert "unknown operator" in raised(FormatError, nio.graph_from_json, obj)
        assert "ended early" in raised(ValidationError, X.from_sexpr, "(relu 1.0 (2.0 (node a)")
        assert_freed(before)

    def test_boosted_model_refused(self, collector_off):
        _, lm, res = table_instance(2, 3, 2, 7)
        q, d = lm_to_rnn(lm, 2), distinguisher_to_rnn(res.applied, Alphabet(2), 2)
        args = (2, res.alpha, res.offset, 2)
        boosted, _ = build_boosted_rnn(q, d, *args)
        before = table_size()
        message = raised(PreconditionError, build_boosted_rnn, boosted, d, *args)
        assert "Q node 'f1.Ht.w'" in message
        assert_freed(before)

    def test_unknown_expression_in_compile(self, collector_off):
        before = table_size()
        assert "unknown expression" in raised(ValidationError, compile_graph, opaque_graph())
        assert_freed(before)


def uniform_model():
    return text_to_lm(random_text(Alphabet(2), 3, rng_for(5)))


class Opaque(X.Expr):
    """An expression kind the compiler does not know."""

    __slots__ = ()


def opaque_graph() -> RnnGraph:
    leaf = object.__new__(Opaque)
    for name, value in (("_depth", 0), ("_free", frozenset())):
        object.__setattr__(leaf, name, value)
    out = X.relu(0.0, (1.0, "in"), (2.0, X.prod("in", leaf)))
    return RnnGraph(
        nodes=[NodeSpec("in", 0.0, None), NodeSpec("out", 0.0, out)],
        input_ids=("in",),
        output_id="out",
        hidden_ids=(),
        rnn_time=1,
    )


# -- the collector's state around the decorated calls ------------------------


class TestCollectorPaused:
    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_is_kept_on_return_and_raise(self, enabled):
        @X.collector_paused
        def paused_call(fail: bool) -> bool:
            if fail:
                raise ValidationError("raised inside")
            return gc.isenabled()

        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            assert paused_call(False) is False
            assert gc.isenabled() is enabled
            with pytest.raises(ValidationError, match="raised inside"):
                paused_call(True)
            assert gc.isenabled() is enabled
            compile_graph(lm_to_rnn(uniform_model(), 2))
            assert gc.isenabled() is enabled
            with pytest.raises(ValidationError, match="unknown expression"):
                compile_graph(opaque_graph())
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

    def test_nested_calls_keep_the_outer_pause(self):
        @X.collector_paused
        def outer():
            compile_graph(lm_to_rnn(uniform_model(), 2))
            return gc.isenabled()

        assert outer() is False

    def test_no_collection_inside_the_builders(self):
        # a collection counts as inside a function while its frame is on the
        # stack; the wrapper's own argument tuple may still trigger one
        alphabet, lm, res = table_instance(2, 4, 2, 1039)
        q, d = lm_to_rnn(lm, 2), distinguisher_to_rnn(res.applied, alphabet, 2)
        args = (2, res.alpha, res.offset, 2)
        boosted, _ = build_boosted_rnn(q, d, *args)
        calls = [
            (lm_to_rnn, (lm, 2)),
            (distinguisher_to_rnn, (res.applied, alphabet, 2)),
            (build_boosted_rnn, (q, d, *args)),
            (build_boosted_rnn_simple, (q, d, *args)),
            (compile_graph, (boosted,)),
        ]
        codes = {inspect.unwrap(fn).__code__: fn.__name__ for fn, _ in calls}
        inside, outside = [], []

        def hook(phase, info):
            if phase == "start":
                frame = sys._getframe(1)
                while frame is not None and frame.f_code not in codes:
                    frame = frame.f_back
                if frame is None:
                    outside.append(info["generation"])
                else:
                    inside.append(codes[frame.f_code])

        enabled, threshold = gc.isenabled(), gc.get_threshold()
        gc.enable()
        gc.set_threshold(1)
        gc.callbacks.append(hook)
        try:
            for fn, fn_args in calls:
                fn(*fn_args)
            [[] for _ in range(10)]
        finally:
            gc.callbacks.remove(hook)
            gc.set_threshold(*threshold)
            if not enabled:
                gc.disable()
        assert inside == []
        assert outside  # the hook sees the collections the threshold triggers


# the verify checks that build and run circuits pause the collector too
CIRCUIT_CHECKS = [
    verify.check_compiled_boost,
    verify.check_cross_construction,
    verify.check_hidden_sufficiency,
    verify.check_quantized_boost,
]


class TestVerifyCircuitChecks:
    def test_no_collection_inside_the_checks(self):
        codes = {inspect.unwrap(fn).__code__: fn.__name__ for fn in CIRCUIT_CHECKS}
        inside, outside = [], []

        def hook(phase, info):
            if phase == "start":
                frame = sys._getframe(1)
                while frame is not None and frame.f_code not in codes:
                    frame = frame.f_back
                if frame is None:
                    outside.append(info["generation"])
                else:
                    inside.append(codes[frame.f_code])

        enabled, threshold = gc.isenabled(), gc.get_threshold()
        gc.enable()
        gc.set_threshold(1)
        gc.callbacks.append(hook)
        try:
            rows = verify.run_all(CIRCUIT_CHECKS)
            [[] for _ in range(10)]
        finally:
            gc.callbacks.remove(hook)
            gc.set_threshold(*threshold)
            if not enabled:
                gc.disable()
        assert [row.ok for row in rows] == [True] * len(CIRCUIT_CHECKS)
        assert inside == []
        assert outside  # the hook sees the collections the threshold triggers

    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_is_restored_when_a_check_raises(self, monkeypatch, enabled):
        def refuse(*args):
            raise ValidationError("builder refused")

        monkeypatch.setattr(verify, "lm_to_rnn", refuse)
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            for check in CIRCUIT_CHECKS:
                with pytest.raises(ValidationError, match="builder refused"):
                    check()
                assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
