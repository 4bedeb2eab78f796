"""Engine semantics: stepping, schedules, determinism, scrubbing."""

import json
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ntpboost import io as nio
from ntpboost.boosting import boost_text
from itertools import product

from ntpboost.construct import (
    build_boosted_rnn,
    build_boosted_rnn_simple,
    distinguisher_to_rnn,
    lm_to_rnn,
)
from ntpboost.dist import Alphabet, TextDistribution, text_to_lm
from ntpboost.errors import ReciprocalZeroError, SizingError, ValidationError
from ntpboost.fixedpoint import FixedPointFormat, quantized_run
from ntpboost.instances import random_prefix_window_distinguisher, random_text, rng_for
from ntpboost.rnn import engine
from ntpboost.rnn.engine import (
    _CONST,
    _NODE,
    _PROD,
    _RECIP,
    _RELU,
    _advance,
    _schedule,
    compile_graph,
    quantize_array,
    run,
)
from ntpboost.rnn.expr import (
    Const,
    Node,
    Prod,
    Recip,
    Relu,
    case_select,
    const,
    evaluate,
    ind_ge,
    ind_le,
    node,
    prod,
    recip,
    relu,
)
from ntpboost.rnn.graph import NodeSpec, RnnGraph
from ntpboost.rnn import sufficiency
from ntpboost.rnn.sufficiency import verify_hidden_sufficiency
from full_trace import full_run, step
from reference_schedule import reference_schedule
from test_expr import distinct_objects


def counter_graph(period):
    w = case_select(
        [(ind_le("w0", period - 1.0), relu(1.0, (1.0, "w0")))], const(1.0)
    )
    return RnnGraph(
        nodes=[NodeSpec("in", 0.0, None), NodeSpec("w0", 1.0, w)],
        input_ids=("in",),
        output_id="w0",
        hidden_ids=("w0",),
        rnn_time=period,
        meta={"schedule": "multiples"},
    )


def identity_echo_graph():
    return RnnGraph(
        nodes=[NodeSpec("in", 0.0, None), NodeSpec("out", 0.0, relu(0.0, (1.0, "in")))],
        input_ids=("in",),
        output_id="out",
        hidden_ids=(),
        rnn_time=1,
        meta={"schedule": "multiples"},
    )


def two_input_graph():
    """Inputs a and b, both read by ``out``: 11 x when both hold x."""
    return RnnGraph(
        nodes=[
            NodeSpec("a", 0.0, None),
            NodeSpec("b", 0.0, None),
            NodeSpec("out", 0.0, relu(0.0, (1.0, "a"), (10.0, "b"))),
        ],
        input_ids=("a", "b"),
        output_id="out",
        hidden_ids=(),
        rnn_time=2,
        meta={"schedule": "multiples"},
    )


class TestTwoInputs:
    """No builder makes a graph with two input nodes, but the format, the
    validator and the engine accept one: every input receives the token."""

    def test_every_input_receives_every_token(self):
        g = two_input_graph()
        stream = np.array([[1.0, 0.0], [3.0, 1.0], [2.0, 2.0]])  # (n, batch)
        state, _ = engine._start(compile_graph(g), stream, None)
        assert state[0].tolist() == state[1].tolist() == [1.0, 0.0]
        outs = run(g, stream).values[:, 0, :]
        assert outs.tolist() == (11.0 * stream).tolist()

    def test_json_round_trip_keeps_the_outputs(self):
        g = two_input_graph()
        loaded = nio.graph_from_json(json.loads(json.dumps(nio.graph_to_json(g))))
        assert loaded.input_ids == ("a", "b")
        stream = np.array([[1.0, 0.0], [3.0, 1.0], [2.0, 2.0]])
        assert run(loaded, stream).values.tobytes() == run(g, stream).values.tobytes()


class TestStepAndRun:
    def test_constant_self_loop_holds(self):
        g = RnnGraph(
            nodes=[NodeSpec("in", 0.0, None), NodeSpec("c", 2.5, node("c"))],
            input_ids=("in",),
            output_id="c",
            hidden_ids=("c",),
            rnn_time=1,
        )
        state = {"in": 0.0, "c": 2.5}
        for _ in range(5):
            state = step(g, state, 1.0)
            assert state["c"] == 2.5

    def test_counter_paper_example(self):
        # step counter with period 6 has value 2 at t = 8
        tr = full_run(counter_graph(6), [0, 1, 0])
        assert tr.scalar("w0", 8) == 2.0

    def test_product_chain_hand_evaluated(self):
        g = RnnGraph(
            nodes=[
                NodeSpec("in", 0.0, None),
                NodeSpec("a", 2.0, prod(node("a"), const(0.5))),
                NodeSpec("b", 1.0, prod(node("a"), node("b"))),
            ],
            input_ids=("in",),
            output_id="b",
            hidden_ids=(),
            rnn_time=1,
        )
        tr = full_run(g, [0, 0, 0, 0])
        # a: 2, 1, 0.5, 0.25 ; b: 1, 2, 2, 1
        assert [tr.scalar("a", t) for t in range(1, 5)] == [2.0, 1.0, 0.5, 0.25]
        assert [tr.scalar("b", t) for t in range(1, 5)] == [1.0, 2.0, 2.0, 1.0]

    def test_identity_echo(self):
        stream = [1, 0, 1, 1, 0]
        tr = run(identity_echo_graph(), stream)
        outs = tr.output_at_multiples()
        # output at t = i reads the input at t = i - 1: one-step echo with
        # the pointer having advanced, so compare shifted
        assert [int(outs[t][0]) for t in range(2, 6)] == stream[:4]

    def test_program_of_another_graph_rejected(self):
        # two circuits of one shape: the other's program would run silently
        rng = rng_for(5)
        b2 = Alphabet(2)
        g1, g2 = (lm_to_rnn(text_to_lm(random_text(b2, 3, rng))) for _ in range(2))
        docs = np.array(list(product(range(2), repeat=3)), dtype=float).T
        other = compile_graph(g2)
        with pytest.raises(ValidationError, match="another graph"):
            run(g1, docs, program=other)
        with pytest.raises(ValidationError, match="another graph"):
            quantized_run(g1, FixedPointFormat(4, 20), docs, program=other)

    def test_hold_three_steps_schedule(self):
        # token held 3 steps: output for x_{:i+1} available at t = 3i + 3
        g = RnnGraph(
            nodes=[
                NodeSpec("in", 0.0, None),
                NodeSpec("acc", 0.0, relu(0.0, (1.0, "in"))),
                NodeSpec("out", 0.0, relu(0.0, (1.0, "acc"))),
            ],
            input_ids=("in",),
            output_id="out",
            hidden_ids=(),
            rnn_time=3,
        )
        stream = [4, 7, 9]
        tr = run(g, stream)
        for i, tok in enumerate(stream):
            assert tr.value("out", 3 * i + 3)[0] == float(tok)

    def test_reset_on_advance_zeroes_named_nodes(self):
        # "acc" counts steps and is zeroed whenever the pointer advances;
        # "held" counts too but is not reset
        g = RnnGraph(
            nodes=[
                NodeSpec("in", 0.0, None),
                NodeSpec("acc", 0.0, relu(1.0, (1.0, "acc"))),
                NodeSpec("held", 0.0, relu(1.0, (1.0, "held"))),
            ],
            input_ids=("in",),
            output_id="acc",
            hidden_ids=(),
            rnn_time=3,
            meta={"reset_on_advance": ["acc"]},
        )
        tr = full_run(g, [0, 1, 0])
        assert [tr.scalar("acc", t) for t in range(1, 10)] == [0, 1, 2, 0, 1, 2, 0, 1, 2]
        assert [tr.scalar("held", t) for t in range(1, 10)] == list(range(9))

    def test_fixed_point_snaps_every_update_and_counts_saturations(self):
        # with 2 integer bits the counter is capped at 4: every update
        # from t=5 on computes 5 and saturates back to 4
        tr = full_run(counter_graph(8), [0, 0], fixed_point=(2, 0))
        assert [tr.scalar("w0", t) for t in range(1, 17)] == [1, 2, 3] + [4] * 13
        assert tr.saturation_events == 12

    def test_batch_runs_match_single(self):
        g = counter_graph(4)
        streams = np.array([[0, 1], [1, 0], [0, 0]])  # (tokens, batch)
        tr = full_run(g, streams)
        single0 = full_run(g, streams[:, 0])
        assert np.array_equal(tr.values[:, :, 0], single0.values[:, :, 0])

    def test_determinism(self):
        g = counter_graph(5)
        a = full_run(g, [0, 1, 1])
        b = full_run(g, [0, 1, 1])
        assert np.array_equal(a.values, b.values)

    def test_reciprocal_zero_reports_node_and_time(self):
        g = RnnGraph(
            nodes=[
                NodeSpec("in", 0.0, None),
                NodeSpec("x", 1.0, relu(-1.0, (1.0, "x"))),  # hits 0 at t=2
                NodeSpec("y", 0.0, recip(0.0, (1.0, "x"))),
            ],
            input_ids=("in",),
            output_id="y",
            hidden_ids=(),
            rnn_time=1,
        )
        with pytest.raises(ReciprocalZeroError) as err:
            run(g, [0, 0, 0])
        assert err.value.node == "y"
        assert err.value.time_step == 3

    def test_reciprocal_zero_names_lowest_tape_slot(self):
        # y's reciprocal sits at depth 2 but is lowered before z's at
        # depth 1; both denominators hit zero at t=3, and the error names
        # the node whose slot comes first on the tape
        g = RnnGraph(
            nodes=[
                NodeSpec("in", 0.0, None),
                NodeSpec("x", 1.0, relu(-1.0, (1.0, "x"))),
                NodeSpec("y", 0.0, recip(0.0, (1.0, relu(0.0, (1.0, "x"))))),
                NodeSpec("z", 0.0, recip(0.0, (1.0, "x"))),
            ],
            input_ids=("in",),
            output_id="y",
            hidden_ids=(),
            rnn_time=1,
        )
        with pytest.raises(ReciprocalZeroError) as err:
            run(g, [0, 0, 0])
        assert err.value.node == "y"
        assert err.value.time_step == 3

    def test_termless_reciprocal_of_zero_raises(self):
        g = RnnGraph(
            nodes=[NodeSpec("in", 0.0, None), NodeSpec("z", 1.0, Recip(0.0, ()))],
            input_ids=("in",),
            output_id="z",
            hidden_ids=(),
            rnn_time=1,
        )
        with pytest.raises(ReciprocalZeroError) as err:
            run(g, [0, 0])
        assert (err.value.node, err.value.time_step) == ("z", 2)

    def test_hidden_reading_non_hidden_rejected(self):
        with pytest.raises(ValidationError):
            RnnGraph(
                nodes=[
                    NodeSpec("in", 0.0, None),
                    NodeSpec("h", 0.0, relu(0.0, (1.0, "r"))),
                    NodeSpec("r", 0.0, relu(0.0, (1.0, "in"))),
                ],
                input_ids=("in",),
                output_id="r",
                hidden_ids=("h",),
                rnn_time=1,
            )


class TestQuantizeArray:
    def test_examples(self):
        out, sat = quantize_array(np.array([5.8]), 3, 2)
        assert out[0] == 5.75 and sat == 0
        out, sat = quantize_array(np.array([9.1]), 3, 2)
        assert out[0] == 8.0 and sat == 1

    def test_idempotent_and_monotone(self):
        rng = np.random.default_rng(5)
        x = np.sort(rng.uniform(-20, 20, size=200))
        q1, _ = quantize_array(x, 3, 6)
        q2, _ = quantize_array(q1, 3, 6)
        assert np.array_equal(q1, q2)
        # the literal quantizer keeps the fraction after integer
        # saturation, so monotonicity is claimed below saturation only
        below = np.sort(rng.uniform(-8.0, 8.0, size=300))
        qb, sat = quantize_array(below, 3, 6)
        assert np.all(np.diff(qb) >= 0)

    def test_error_bound_below_saturation(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(0, 7.9, size=500)
        q, sat = quantize_array(x, 3, 10)
        assert sat == 0
        assert np.max(np.abs(q - x)) <= 2.0**-10


def full_trace_scrubbing(graph, trials, rng):
    """The failures of the scrubbing check, from one all-node baseline
    trace and all-node resumed traces; it draws what
    ``verify_hidden_sufficiency`` draws, in the same order."""
    prog = compile_graph(graph)
    period, rows = graph.rnn_time, np.arange(len(graph.nodes))
    keep = set(graph.hidden_ids) | set(graph.input_ids)
    scrub_rows = [j for j, n in enumerate(graph.nodes) if n.name not in keep]
    out = prog.node_index[graph.output_id]
    size = graph.meta.get("alphabet_size", 2)
    streams = rng.choice(size, size=(sufficiency.N_TOKENS, trials)).astype(float)
    scrub_at = rng.integers(1, sufficiency.N_TOKENS, size=trials)
    garbage = rng.uniform(0.0, 3.0, size=(len(scrub_rows), trials))
    total = sufficiency.N_TOKENS * period
    baseline = full_run(graph, streams).values
    failures = []
    for i in sorted(set(scrub_at.tolist())):
        cols = np.nonzero(scrub_at == i)[0]
        scrub_t = i * period
        scrubbed = baseline[scrub_t - 1][:, cols]
        scrubbed[scrub_rows] = garbage[:, cols]
        resumed = _advance(prog, scrubbed, streams[:, cols], scrub_t, total, rows)[0]
        for t in range((i + 1) * period, total + 1, period):
            gap = np.abs(baseline[t - 1, out, cols] - resumed[t - scrub_t, out])
            bad = cols[gap > sufficiency.ATOL]
            if bad.size:
                failures += [
                    {"trial": int(c), "scrub_time": scrub_t, "diverged_at": t} for c in bad
                ]
                break
    return failures


def accumulator_graph(period):
    """The output reads a non-hidden accumulator that carries state."""
    return RnnGraph(
        nodes=[
            NodeSpec("in", 0.0, None),
            NodeSpec("acc", 0.0, relu(0.0, (1.0, "in"), (1.0, "acc"))),
            NodeSpec("out", 0.0, relu(0.0, (1.0, "acc"))),
        ],
        input_ids=("in",),
        output_id="out",
        hidden_ids=(),
        rnn_time=period,
    )


class TestSufficiency:
    def test_all_hidden_graph_passes(self):
        g = counter_graph(3)
        rng = np.random.default_rng(11)
        rep = verify_hidden_sufficiency(g, trials=10, rng=rng)
        assert rep.ok

    def test_constructed_counterexample_fails(self):
        g = accumulator_graph(2)
        rng = np.random.default_rng(13)
        rep = verify_hidden_sufficiency(g, trials=20, rng=rng)
        assert not rep.ok
        assert rep.first_failure()["diverged_at"] > rep.first_failure()["scrub_time"]

    @pytest.mark.parametrize("period", [1, 2, 3])
    def test_failures_match_the_full_trace_check(self, period):
        g = accumulator_graph(period)
        rep = verify_hidden_sufficiency(g, trials=20, rng=np.random.default_rng(13))
        want = full_trace_scrubbing(g, 20, np.random.default_rng(13))
        assert len(want) > 0
        assert (rep.ok, rep.failures) == (False, want)

    def test_boosted_circuit_passes_as_the_full_trace_check_does(self):
        q, d, k, alpha, offset, size = boosted_instance(641, 4, 2)
        g, _ = build_boosted_rnn(q, d, k, alpha, offset, size)
        rep = verify_hidden_sufficiency(g, trials=8, rng=np.random.default_rng(5))
        assert rep.ok
        assert full_trace_scrubbing(g, 8, np.random.default_rng(5)) == []


def held_graph(cond):
    """A non-hidden ``g`` holds 10.0 and the output reads it; ``h`` is
    20 - g one step later, and ``den`` is 1/(1 - cond)."""
    return RnnGraph(
        nodes=[
            NodeSpec("in", 0.0, None),
            NodeSpec("g", 10.0, relu(0.0, (1.0, "g"))),
            NodeSpec("h", 10.0, relu(20.0, (-1.0, "g"))),
            NodeSpec("den", 1.0, recip(1.0, (-1.0, cond))),
            NodeSpec("out", 10.0, relu(0.0, (1.0, "g"))),
        ],
        input_ids=("in",),
        output_id="out",
        hidden_ids=(),
        rnn_time=1,
    )


class TestScrubbingPass:
    @pytest.mark.parametrize("period", [1, 2, 3])
    @pytest.mark.parametrize("seed, trials", [(31, 7), (47, 3)])
    def test_failures_in_several_groups_match_the_full_trace_check(
        self, period, seed, trials
    ):
        g = accumulator_graph(period)
        rep = verify_hidden_sufficiency(g, trials, np.random.default_rng(seed))
        want = full_trace_scrubbing(g, trials, np.random.default_rng(seed))
        assert len({f["scrub_time"] for f in want}) >= 2
        assert (rep.ok, rep.failures) == (False, want)

    @pytest.mark.parametrize("period", [1, 2, 3])
    def test_each_token_period_is_stepped_once(self, monkeypatch, period):
        calls = []

        def counted(prog, state, stream, t0, t1, rows, *args, **kw):
            calls.append((t0, t1, state.shape[1]))
            return _advance(prog, state, stream, t0, t1, rows, *args, **kw)

        monkeypatch.setattr(sufficiency, "_advance", counted)
        verify_hidden_sufficiency(accumulator_graph(period), 6, np.random.default_rng(3))
        ends = [1] + [i * period for i in range(1, sufficiency.N_TOKENS + 1)]
        assert calls == [(a, b, 12) for a, b in zip(ends, ends[1:])]

    def test_garbage_that_zeroes_a_reciprocal_raises(self):
        # a scrubbed g lies in [0, 3), so den divides by zero one step later
        g = held_graph(ind_le("g", 5))
        with pytest.raises(ReciprocalZeroError):
            verify_hidden_sufficiency(g, 4, np.random.default_rng(2))

    def test_a_group_stops_at_its_first_divergence(self):
        # h >= 15 two steps after a scrub, one step after the output diverged
        g = held_graph(ind_ge("h", 15))
        with pytest.raises(ReciprocalZeroError):
            full_trace_scrubbing(g, 12, np.random.default_rng(2))
        rep = verify_hidden_sufficiency(g, 12, np.random.default_rng(2))
        assert not rep.ok
        assert sorted(f["trial"] for f in rep.failures) == list(range(12))
        assert {f["scrub_time"] for f in rep.failures} == {1, 2, 3}
        assert rep.failures == sorted(
            rep.failures, key=lambda f: (f["scrub_time"], f["trial"])
        )
        assert all(f["diverged_at"] == f["scrub_time"] + 1 for f in rep.failures)


class TestTokenAlphabet:
    def binary_model(self):
        text = TextDistribution(Alphabet(2), 3, np.full(8, 1.0 / 8))
        return lm_to_rnn(text_to_lm(text))

    @pytest.mark.parametrize("bad", [5, 1.5, -1, 2, float("nan")])
    def test_out_of_alphabet_token_rejected(self, bad):
        with pytest.raises(ValidationError, match="alphabet"):
            run(self.binary_model(), [0, bad, 1])

    def test_bad_token_in_one_stream_of_a_batch_rejected(self):
        streams = np.array([[0, 1], [1, 0], [1, 2]])
        with pytest.raises(ValidationError, match="alphabet"):
            run(self.binary_model(), streams)

    def test_alphabet_tokens_accepted(self):
        outs = run(self.binary_model(), [0, 1, 1]).output_at_multiples()
        assert [float(outs[i][0]) for i in (1, 2, 3)] == [0.5, 0.5, 0.5]


# -- differential tests of the step kernel against expr.evaluate -------------

R = 4.0  # every node value stays in [0, R]
CAP = 8.0  # every subexpression value stays in [0, CAP]


@st.composite
def small_graphs(draw):
    """Random graphs of Relu, Recip, Prod, Const and Node expressions.

    Subexpressions are drawn from a growing pool, so later ones share
    earlier ones.  Each pool entry carries an upper bound on its value
    (all values are nonnegative); an entry whose bound exceeds CAP is
    wrapped as 1 / (1 + e), so no value overflows, every reciprocal
    denominator is at least 1, and one step's rounding stays near 1e-15.
    """
    names = [f"n{j}" for j in range(draw(st.integers(1, 4)))]
    coef = st.one_of(st.just(1.0), st.floats(-2.0, 2.0))
    bias = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-2.0, 2.0))
    pool = [(Node(name), R) for name in names + ["in"]]
    consts = draw(st.lists(st.floats(0.0, 2.0), max_size=2))
    if draw(st.booleans()):  # signed-zero twins: two objects, a tape slot each
        consts += [0.0, -0.0]
    pool += [(Const(c), c) for c in consts]
    pool.append((Relu(draw(bias), ()), 2.0))

    def pick():
        return pool[draw(st.integers(0, len(pool) - 1))]

    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["relu", "recip", "prod"]))
        children = [pick() for _ in range(draw(st.integers(1, 3)))]
        if kind == "relu":
            b = draw(bias)
            cs = [draw(coef) for _ in children]
            expr = Relu(b, tuple((c, e) for c, (e, _) in zip(cs, children)))
            bound = max(b, 0.0) + sum(abs(c) * cb for c, (_, cb) in zip(cs, children))
        elif kind == "recip":
            cs = [draw(st.floats(0.0, 2.0)) for _ in children]
            expr = Recip(
                draw(st.floats(1.0, 3.0)),
                tuple((c, e) for c, (e, _) in zip(cs, children)),
            )
            bound = 1.0
        else:
            children.append(pick())
            expr = Prod(tuple(e for e, _ in children))
            bound = float(np.prod([cb for _, cb in children]))
        if bound > CAP:
            expr, bound = Recip(1.0, ((1.0, expr),)), 1.0
        pool.append((expr, bound))

    nodes = [NodeSpec("in", 0.0, None)]
    for name in names:
        expr, bound = pick()
        if bound > R:
            expr = Recip(1.0, ((1.0, expr),))
        nodes.append(NodeSpec(name, draw(st.floats(0.0, R)), expr))
    graph = RnnGraph(
        nodes=nodes, input_ids=("in",), output_id=names[0], hidden_ids=(), rnn_time=1
    )
    streams = np.array(draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=8, max_size=8)))
    return graph, streams.reshape(4, 2)


def same_bits(a, b) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def assert_steps_match_tree_evaluation(graph, streams, tr):
    """Every node of ``tr``, a full run of ``graph`` on ``streams``, has
    the bytes of ``evaluate`` over the previous step at every step."""
    names = [n.name for n in graph.nodes]
    for t in range(2, tr.total_steps + 1):
        for b in range(streams.shape[1]):
            prev = dict(zip(names, tr.values[t - 2, :, b]))
            for j, spec in enumerate(graph.nodes):
                got = tr.values[t - 1, j, b]
                if spec.expr is None:
                    assert got == streams[t - 1, b]
                else:
                    assert same_bits(got, evaluate(spec.expr, prev))


class TestKernelDifferential:
    def test_nan_matches_tree_evaluation(self):
        # relu keeps a NaN, as np.maximum does; the NaN fed in is the
        # hardware's inf - inf, so every NaN here has the same bits
        nan = float("inf") - float("inf")
        exprs = [
            relu(0.0, (1.0, "x")),
            relu(-1.0, (2.0, "x"), (1.0, "y")),
            relu(0.0, (0.0, "z")),
            recip(1.0, (1.0, "x")),
            prod("y", "x"),
        ]
        graph = node_graph(["x", "y", "z"], exprs)
        prev = {"in": 0.0, "x": nan, "y": 1.0, "z": float("inf")}
        state = np.array([[prev.get(spec.name, 0.0)] for spec in graph.nodes])
        with np.errstate(invalid="ignore"):
            got = one_update(graph, state)[:, 0]
        for j, spec in enumerate(graph.nodes[4:], start=4):
            want = evaluate(spec.expr, prev)
            assert want != want and same_bits(got[j], want)

    @given(small_graphs())
    def test_each_step_matches_tree_evaluation(self, case):
        graph, streams = case
        tr = full_run(graph, streams)
        # a batch of one sums through the accumulate path, a batch of two
        # through the elementwise reduce: both give the same bytes
        single = full_run(graph, streams[:, 0])
        assert single.values.tobytes() == tr.values[:, :, :1].tobytes()
        assert_steps_match_tree_evaluation(graph, streams, tr)

    def test_signed_zero_twins_match_tree_evaluation(self):
        # b = pos * 0.0 * -0.0 * neg is -0.0 once x > 0: its -0.0 constant
        # must not run in the slot of the 0.0 one
        streams = np.array([[1.0], [2.0], [0.5]])
        graph = signed_zero_graph()
        tr = full_run(graph, streams)
        assert_steps_match_tree_evaluation(graph, streams, tr)
        assert same_bits(tr.scalar("b", 3), -0.0)

    def test_a_node_s_bytes_ignore_unrelated_nodes(self):
        # a's 0.0 constant is lowered before b's -0.0 twin
        streams = np.array([[1.0], [2.0], [0.5]])
        b = NodeSpec("b", 0.0, prod(Const(-0.0), "x"))
        alone = [NodeSpec("x", 0.0, None), b]
        beside = [alone[0], NodeSpec("a", 0.0, prod(Const(0.0), "x")), b]
        traces = [full_run(RnnGraph(nodes, ("x",), "b", (), 1), streams) for nodes in (alone, beside)]
        got, want = (tr.values[:, -1].tobytes() for tr in traces)  # b is the last node
        assert got == want
        assert all(same_bits(traces[1].scalar("b", t), -0.0) for t in (2, 3))

    @pytest.mark.parametrize("batch", [1, 2])
    def test_long_weighted_sum_adds_left_to_right(self, batch):
        rng = np.random.default_rng(29)
        m = 240
        # one huge term first: added one at a time, each small term rounds
        # against it, while pairwise blocks would sum the small ones first
        inits = rng.uniform(0.5, 2.0, m)
        inits[0] = 2.0**60  # its ulp is 256, far above any small term
        coefs = rng.uniform(0.5, 2.0, m)
        names = [f"x{j}" for j in range(m)]
        nodes = [NodeSpec("in", 0.0, None)]
        nodes += [NodeSpec(n, float(v), node(n)) for n, v in zip(names, inits)]
        nodes.append(NodeSpec("s", 0.0, relu(0.75, *zip(coefs, names))))
        g = RnnGraph(
            nodes=nodes, input_ids=("in",), output_id="s", hidden_ids=(), rnn_time=1
        )
        products = [float(c) * float(v) for c, v in zip(coefs, inits)]
        want = products[0]
        for p in products[1:]:
            want += p
        want += 0.75
        # the data tell the orders apart: numpy's pairwise sum differs
        assert float(np.sum(products)) + 0.75 != want
        tr = run(g, np.zeros((2, batch)))
        assert tr.value("s", 2).tolist() == [want] * batch


# -- differential tests of the tape against a structural lowering -----------


def float_bits(v: float) -> bytes:
    return np.float64(v).tobytes()


def reference_tape(graph):
    """The tape as lowered through a cache keyed on each subtree's full
    structure, floats by their bits: a subtree equal to one lowered
    before reuses that slot, and a 0.0 and a -0.0 twin get a slot each.
    The key is the structure, not the object, so this does not lean on
    interning."""
    index = {n.name: j for j, n in enumerate(graph.nodes)}
    structures = {}

    def structure(e):
        if id(e) not in structures:
            if isinstance(e, Const):
                s = ("const", float_bits(e.value))
            elif isinstance(e, Node):
                s = ("node", e.name)
            elif isinstance(e, Prod):
                s = ("prod", tuple(structure(f) for f in e.factors))
            else:
                terms = tuple((float_bits(c), structure(x)) for c, x in e.terms)
                s = (type(e).__name__, float_bits(e.bias), terms)
            structures[id(e)] = s
        return structures[id(e)]

    tape, cache = [], {}

    def lower(e):
        key = structure(e)
        if key not in cache:
            if isinstance(e, Const):
                entry = (_CONST, e.value)
            elif isinstance(e, Node):
                entry = (_NODE, index[e.name])
            elif isinstance(e, Prod):
                entry = (_PROD, tuple(lower(f) for f in e.factors))
            else:
                op = _RELU if isinstance(e, Relu) else _RECIP
                entry = (op, e.bias, tuple((c, lower(x)) for c, x in e.terms))
            tape.append(entry)
            cache[key] = len(tape) - 1
        return cache[key]

    for spec in graph.nodes:
        if spec.expr is not None:
            lower(spec.expr)
    return tape


def assert_reference_tape(graph):
    got, want = compile_graph(graph).tape, reference_tape(graph)
    # repr tells a 0.0 from a -0.0 where == would not
    assert repr(got) == repr(want)


def signed_zero_graph():
    """Sums whose biases and constants are 0.0 and -0.0, in both orders."""
    x = Node("x")
    neg, pos = Relu(-0.0, ((1.0, x),)), Relu(0.0, ((1.0, x),))
    nodes = [
        NodeSpec("x", 0.0, None),
        NodeSpec("a", 0.0, relu(0.0, (1.0, neg), (2.0, pos))),
        NodeSpec("b", 0.0, prod(pos, Const(0.0), Const(-0.0), neg)),
        NodeSpec("c", 0.0, Relu(-0.0, ((1.0, pos), (1.0, Const(-0.0))))),
    ]
    return RnnGraph(nodes=nodes, input_ids=("x",), output_id="a", hidden_ids=(), rnn_time=1)


def signed_zero_bias_graph():
    """Zero biases with and without terms, next to nonzero ones: the
    schedule adds -0.0 for a zero bias with terms and keeps a term-less
    sum's bias as it is."""
    x = Node("x")
    exprs = [
        Relu(0.0, ()),
        Relu(-0.0, ()),
        Recip(0.0, ((1.0, x),)),
        Recip(-0.0, ((1.0, Relu(1.0, ())),)),
        Relu(0.0, ((0.0, x), (-0.0, x))),
        Relu(-0.0, ((-1.0, x),)),
        Relu(2.0, ((1.0, Relu(0.0, ())),)),
        prod(Relu(-0.0, ()), Const(-0.0), x),
    ]
    nodes = [NodeSpec("x", 1.0, None)]
    nodes += [NodeSpec(f"n{j}", 1.0, e) for j, e in enumerate(exprs)]
    return RnnGraph(nodes=nodes, input_ids=("x",), output_id="n0", hidden_ids=(), rnn_time=1)


def assert_reference_schedule(graph):
    """Every field of the engine's schedule equals the reference layout's,
    floats and their signs compared by bytes."""
    prog = compile_graph(graph)
    got = prog.schedule
    want = reference_schedule(prog.tape, graph, prog.node_index, prog.node_slot)

    def same_array(a, b):
        if a is None or b is None:
            assert a is None and b is None
        else:
            assert (a.dtype, a.shape) == (b.dtype, b.shape)
            assert a.tobytes() == b.tobytes()

    counts = ("num_rows", "reductions", "term_cells", "padded_cells")
    assert [getattr(got, f) for f in counts] == [getattr(want, f) for f in counts]
    same_array(got.const_values, want.const_values)
    same_array(got.next_rows, want.next_rows)
    assert len(got.levels) == len(want.levels)
    for lv, ref in zip(got.levels, want.levels):
        assert (lv.relu, lv.recip, lv.sum_cells) == (ref.relu, ref.recip, ref.sum_cells)
        assert repr(lv.buckets) == repr(ref.buckets)
        for field in ("src", "coef", "bias", "recip_slots"):
            same_array(getattr(lv, field), getattr(ref, field))


def boosted_instance(seed, n, k):
    b2 = Alphabet(2)
    rng = rng_for(seed)
    p, qt = random_text(b2, n, rng), random_text(b2, n, rng)
    res = boost_text(p, qt, random_prefix_window_distinguisher(b2, n, k, rng))
    q = lm_to_rnn(text_to_lm(qt), 2)
    d = distinguisher_to_rnn(res.applied, b2, 2)
    return q, d, k, res.alpha, res.offset, 2


class TestTapeDifferential:
    def test_fixture_graphs(self):
        fixtures = os.path.join(os.path.dirname(nio.__file__), "fixtures")
        graphs = 0
        for name in sorted(os.listdir(fixtures)):
            with open(os.path.join(fixtures, name)) as fh:
                payload = json.load(fh) if name.endswith(".json") else {}
            if "nodes" in payload:
                assert_reference_tape(nio.graph_from_json(payload))
                graphs += 1
        assert graphs >= 1

    @pytest.mark.parametrize("seed,n,k", [(641, 4, 2), (643, 3, 1)])
    def test_boosted_constructions(self, seed, n, k):
        args = boosted_instance(seed, n, k)
        efficient, _ = build_boosted_rnn(*args)
        for graph in (efficient, build_boosted_rnn_simple(*args)):
            assert_reference_tape(graph)
        # hash-consing leaves one object per distinct structure
        roots = [n.expr for n in efficient.nodes if n.expr is not None]
        assert distinct_objects(*roots) == len(compile_graph(efficient).tape)

    @given(small_graphs())
    def test_random_graphs(self, case):
        graph, _ = case
        assert_reference_tape(graph)

    def test_signed_zero_twins_keep_their_own_slots(self):
        g = signed_zero_graph()
        assert_reference_tape(g)
        tape = compile_graph(g).tape
        # x, the -0.0 and the 0.0 sum, a, the 0.0 and the -0.0 constant, b, c
        assert len(tape) == 8
        assert repr(tape[1:3]) == "[(2, -0.0, ((1.0, 0),)), (2, 0.0, ((1.0, 0),))]"
        assert repr(tape[4:7]) == "[(0, 0.0), (0, -0.0), (4, (2, 4, 5, 1))]"


class TestScheduleDifferential:
    """The numpy layout of ``_schedule`` against the slot-by-slot reference."""

    def test_fixture_graphs(self):
        fixtures = os.path.join(os.path.dirname(nio.__file__), "fixtures")
        graphs = 0
        for name in sorted(os.listdir(fixtures)):
            with open(os.path.join(fixtures, name)) as fh:
                payload = json.load(fh) if name.endswith(".json") else {}
            if "nodes" in payload:
                assert_reference_schedule(nio.graph_from_json(payload))
                graphs += 1
        assert graphs >= 1

    @pytest.mark.parametrize("seed,n,k", [(641, 4, 2), (643, 3, 1)])
    def test_boosted_constructions(self, seed, n, k):
        args = boosted_instance(seed, n, k)
        q, d = args[:2]
        for graph in (q, d, build_boosted_rnn(*args)[0], build_boosted_rnn_simple(*args)):
            assert_reference_schedule(graph)

    @given(small_graphs())
    def test_random_graphs(self, case):
        graph, _ = case
        assert_reference_schedule(graph)

    def test_signed_zero_biases(self):
        for graph in (signed_zero_graph(), signed_zero_bias_graph()):
            assert_reference_schedule(graph)
        bias = compile_graph(signed_zero_bias_graph()).schedule.levels[0].bias[:, 0]
        assert np.signbit(bias).any() and not np.signbit(bias).all()

    def test_graphs_without_operators(self):
        for graph in (
            RnnGraph([NodeSpec("x", 0.0, None)], ("x",), "x", (), 1),
            RnnGraph(
                [NodeSpec("x", 0.0, None), NodeSpec("y", 0.0, node("x")),
                 NodeSpec("z", 0.0, Const(-0.0))],
                ("x",), "y", (), 1,
            ),
        ):
            assert_reference_schedule(graph)
            assert compile_graph(graph).schedule.levels == []

    @pytest.mark.parametrize(
        "tape",
        [
            [(_NODE, 0), (_RELU, 0.0, ((1.0, 2),)), (_RELU, 0.0, ((1.0, 0),))],
            [(_NODE, 0), (_RECIP, 1.0, ((1.0, 1),))],
            [(_NODE, 0), (_PROD, (0, 9))],
            [(_NODE, 0), (_RELU, 0.0, ((1.0, -1),))],
            [(_NODE, 2)],
            [(_NODE, -1)],
            [(_NODE, 0), (_PROD, (0, 5)), (_NODE, 7)],
            [(_NODE, 0), (_NODE, 3), (_PROD, (0, 5))],
            [(_NODE, 0), (_RELU, 0.0, ((1.0, 0),)), (_PROD, (1, 2)), (_RELU, 1.0, ((1.0, 9),))],
        ],
    )
    def test_malformed_tapes_fail_alike(self, tape):
        graph = identity_echo_graph()
        node_index = {"in": 0, "out": 1}
        errors = []
        for layout in (_schedule, reference_schedule):
            with pytest.raises(ValidationError, match="tape slot") as err:
                layout(tape, graph, node_index, {"out": len(tape) - 1})
            errors.append(str(err.value))
        assert errors[0] == errors[1]


# -- prefix sharing: columns with equal start state and tokens step once -----


def columns_alone(graph, streams):
    """Run each column as its own batch of one: the unshared reference."""
    runs = [full_run(graph, streams[:, b]) for b in range(streams.shape[1])]
    return np.concatenate([r.values for r in runs], axis=2)


def updates_times_prefixes(graph, n, size):
    """Columns a sweep of all of Sigma^n evaluates: at each update, one per
    distinct prefix read up to the previous step."""
    period = graph.rnn_time
    return sum(size ** (((t - 2) // period) + 1) for t in range(2, n * period + 1))


class TestPrefixSharing:
    def test_all_documents_with_duplicates_match_single_runs(self):
        q, d, k, alpha, offset, size = boosted_instance(641, 4, 2)
        graph, _ = build_boosted_rnn(q, d, k, alpha, offset, size)
        docs = np.array(list(product(range(size), repeat=4)), dtype=float).T
        streams = docs[:, [0, 5, 3, 5, 15, 0] + list(range(16))]
        tr = full_run(graph, streams)
        want = columns_alone(graph, streams)
        assert tr.values.tobytes() == want.tobytes()
        assert tr.evaluated_columns == updates_times_prefixes(graph, 4, size)

    @given(small_graphs())
    def test_shared_batch_matches_single_runs_and_evaluate(self, case):
        graph, streams = case
        batch = streams[:, [0, 1, 0, 1, 1]]
        tr = full_run(graph, batch)
        want = columns_alone(graph, batch)
        assert tr.values.tobytes() == want.tobytes()
        names = [n.name for n in graph.nodes]
        for t in range(2, tr.total_steps + 1):
            prev = dict(zip(names, tr.values[t - 2, :, 0]))
            for j, spec in enumerate(graph.nodes):
                if spec.expr is not None:
                    got = tr.values[t - 1, j, 0]
                    assert same_bits(got, evaluate(spec.expr, prev))

    def test_signed_zero_tokens_are_not_merged(self):
        # no alphabet_size, so -0.0 is a valid token; "a" copies its sign
        g = RnnGraph(
            nodes=[
                NodeSpec("in", 0.0, None),
                NodeSpec("a", 0.0, prod(node("in"), const(1.0))),
            ],
            input_ids=("in",),
            output_id="a",
            hidden_ids=(),
            rnn_time=1,
        )
        streams = np.array([[1.0, 1.0, 1.0], [0.0, -0.0, 0.0], [1.0, 1.0, 1.0]])
        tr = full_run(g, streams)
        want = columns_alone(g, streams)
        assert tr.values.tobytes() == want.tobytes()
        assert [np.signbit(v) for v in tr.value("a", 3)] == [False, True, False]
        assert tr.evaluated_columns == 1 + 2

    def decrementer(self):
        # x counts down by one; y = 1 / x has a zero denominator once x is 0
        return RnnGraph(
            nodes=[
                NodeSpec("in", 0.0, None),
                NodeSpec("x", 1.0, relu(-1.0, (1.0, "x"))),
                NodeSpec("y", 0.0, recip(0.0, (1.0, "x"))),
            ],
            input_ids=("in",),
            output_id="y",
            hidden_ids=(),
            rnn_time=1,
        )

    def test_one_stream_two_start_states_evolve_apart(self):
        g = self.decrementer()
        prog = compile_graph(g)
        stream = np.zeros((4, 2))
        state = np.array([[0.0, 0.0], [9.0, 7.0], [0.5, 0.5]])
        rows = np.arange(len(g.nodes))
        both, last, _, evaluated = _advance(prog, state, stream, 1, 4, rows)
        assert last.tobytes() == both[-1].tobytes()
        for b in range(2):
            alone, _, _, _ = _advance(prog, state[:, b : b + 1], stream[:, :1], 1, 4, rows)
            assert both[:, :, b : b + 1].tobytes() == alone.tobytes()
        assert evaluated == 3 * 2

    def test_one_stream_start_state_that_raises_is_not_merged(self):
        # the second column alone raises at t=4; the first never does
        g = self.decrementer()
        prog = compile_graph(g)
        state = np.array([[0.0, 0.0], [9.0, 2.0], [0.5, 0.5]])
        rows = np.arange(len(g.nodes))
        with pytest.raises(ReciprocalZeroError) as alone:
            _advance(prog, state[:, 1:], np.zeros((4, 1)), 1, 4, rows)
        with pytest.raises(ReciprocalZeroError) as both:
            _advance(prog, state, np.zeros((4, 2)), 1, 4, rows)
        assert (both.value.node, both.value.time_step) == ("y", 4)
        assert (both.value.node, both.value.time_step) == (
            alone.value.node,
            alone.value.time_step,
        )

    def test_identical_columns_count_saturations_per_column(self):
        tr = full_run(counter_graph(8), np.zeros((2, 2)), fixed_point=(2, 0))
        assert tr.saturation_events == 2 * 12
        assert tr.values[:, :, 0].tobytes() == tr.values[:, :, 1].tobytes()
        assert tr.evaluated_columns == 15

    def test_reciprocal_zero_matches_the_unshared_run(self):
        g = self.decrementer()
        distinct = np.array([[0.0, 1.0], [0.0, 1.0], [0.0, 1.0]])
        with pytest.raises(ReciprocalZeroError) as unshared:
            run(g, distinct)
        with pytest.raises(ReciprocalZeroError) as shared:
            run(g, distinct[:, [0, 1, 1, 0, 1]])
        assert (shared.value.node, shared.value.time_step) == (
            unshared.value.node,
            unshared.value.time_step,
        )

    def test_domain_check_message_matches_the_unshared_run(self):
        g = RnnGraph(
            nodes=[
                NodeSpec("in", 0.0, None),
                NodeSpec("c", 0.0, relu(0.0, (1.0, "in"))),
            ],
            input_ids=("in",),
            output_id="c",
            hidden_ids=(),
            rnn_time=1,
            meta={"domain_checks": [("c", [0.0, 0.5, 1.0])]},
        )
        # the first tokens differ, so the distinct batch shares nothing
        distinct = np.array([[0.0, 1.0, 0.5], [1.0, 3.0, 2.0], [1.0, 1.0, 0.0]])
        with pytest.raises(ValidationError) as unshared:
            run(g, distinct)
        assert run(g, distinct[:2, :]).evaluated_columns == 3
        with pytest.raises(ValidationError) as shared:
            run(g, distinct[:, [2, 0, 1, 1, 0, 2]])
        assert "emitted 2.0 at t=3" in str(unshared.value)
        assert str(shared.value) == str(unshared.value)

    def test_distinct_columns_evaluate_every_column(self):
        streams = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0]])
        tr = run(counter_graph(3), streams)
        assert tr.evaluated_columns == (tr.total_steps - 1) * 3


# -- the level kernel against a slot-by-slot evaluation in Python floats -----


def tape_update(prog, prev):
    """One update of one column, slot by slot in tape order, in Python floats.

    Sums add their terms left to right and then the bias, unless it is
    zero; relu is ``np.maximum(v, 0.0)``'s rule (NaN stays, both zeros
    give +0.0).  The input nodes read token 0.  Returns the new state, or
    raises ``ZeroDivisionError`` with the first tape slot whose
    reciprocal denominator is zero.
    """
    vals = []
    for slot, entry in enumerate(prog.tape):
        op = entry[0]
        if op == _CONST:
            v = entry[1]
        elif op == _NODE:
            v = float(prev[entry[1]])
        elif op == _PROD:
            v = vals[entry[1][0]]
            for f in entry[1][1:]:
                v *= vals[f]
        else:
            bias, terms = entry[1], entry[2]
            if terms:
                v = terms[0][0] * vals[terms[0][1]]
                for c, s in terms[1:]:
                    v += c * vals[s]
                if bias != 0.0:
                    v += bias
            else:
                v = bias
            if op == _RELU:
                v = v if v > 0.0 or v != v else 0.0
            elif v == 0.0:
                raise ZeroDivisionError(slot)
            else:
                v = 1.0 / v
        vals.append(v)
    new = [float(x) for x in prev]
    for j, spec in enumerate(prog.graph.nodes):
        if spec.expr is None:
            new[j] = 0.0
        else:
            new[j] = vals[prog.node_slot[spec.name]]
    return np.array(new)


def one_update(graph, states):
    """The engine's update from each start state (columns of ``states``),
    reading token 0."""
    batch = states.shape[1]
    rows = np.arange(len(graph.nodes))
    stream = np.zeros((1, batch))
    out, last, _, evaluated = _advance(compile_graph(graph), states, stream, 1, 2, rows)
    assert evaluated == batch  # the columns are distinct, so none is shared
    assert last.tobytes() == out[1].tobytes()
    return out[1]


def assert_update_matches_tape(graph, states):
    """Batch 1 and batch 2 (and the whole batch) against ``tape_update``."""
    prog = compile_graph(graph)
    want = np.stack([tape_update(prog, states[:, b]) for b in range(states.shape[1])], 1)
    for cols in ([0], [0, 1], list(range(states.shape[1]))):
        got = one_update(graph, states[:, cols])
        assert got.tobytes() == want[:, cols].tobytes()


def node_graph(names, exprs):
    """Input "in", one node per name, then one output node per expression."""
    nodes = [NodeSpec("in", 0.0, None)] + [NodeSpec(n, 0.0, node(n)) for n in names]
    nodes += [NodeSpec(f"o{j}", 0.0, e) for j, e in enumerate(exprs)]
    return RnnGraph(nodes=nodes, input_ids=("in",), output_id="o0", hidden_ids=(), rnn_time=1)


def start_states(graph, values, batch, seed):
    """Distinct start states whose input and named nodes draw from ``values``."""
    rng = np.random.default_rng(seed)
    states = rng.choice(np.array(values), size=(len(graph.nodes), batch))
    states[0] = np.arange(batch)  # the input row keeps the columns apart
    return states


class TestLevelKernel:
    NAMES = [f"x{j}" for j in range(9)]

    def mixed_arity_graph(self, seed):
        """Relu, reciprocal and product slots of arity 1-9 on one level."""
        rng = np.random.default_rng(seed)
        exprs = []
        for arity in range(1, 10):
            picks = [self.NAMES[j] for j in rng.permutation(9)[:arity]]
            coefs = rng.choice([1.0, -1.0, 0.5, -3.0, 2.0**-30], size=arity)
            terms = [(float(c), n) for c, n in zip(coefs, picks)]
            exprs.append(relu(float(rng.choice([0.0, -0.0, 0.25])), *terms))
            # no sum of these terms is -pi, so no denominator is zero
            exprs.append(recip(np.pi, *terms))
            if arity > 1:
                exprs.append(prod(*picks))
        return node_graph(self.NAMES, exprs)

    def test_mixed_arities_with_signed_zero_sums(self):
        # huge and tiny values make the order of addition visible, and the
        # zeros of both signs give sums that are -0.0 or +0.0
        values = [0.0, -0.0, 1.0, -1.0, 2.0**60, -(2.0**60), 3.0, 0.1, 7.0]
        for seed in range(6):
            graph = self.mixed_arity_graph(seed)
            sched = compile_graph(graph).schedule
            assert len(sched.levels) == 1 and sched.padded_cells > sched.term_cells
            assert_update_matches_tape(graph, start_states(graph, values, 5, seed))

    def test_negative_zero_factor_in_a_padded_product(self):
        # the 2-factor products share a bucket with a 3-factor one, so they
        # are padded with 1.0; -0.0 * 5 * 1.0 keeps its sign
        graph = node_graph(
            ["a", "b", "c"], [prod("a", "b"), prod("a", "b", "c"), prod("b", "a")]
        )
        states = np.array([[0.0, 1.0], [-0.0, -0.0], [5.0, -5.0], [2.0, 2.0]])
        states = np.concatenate([states, np.zeros((3, 2))])
        got = one_update(graph, states)
        assert np.signbit(got[4:7]).tolist() == [[True, False], [True, False], [True, False]]
        assert_update_matches_tape(graph, states)

    def test_inf_and_nan_terms(self):
        # IEEE 754 leaves open which NaN an operation on two NaNs returns,
        # so the NaN fed in is the one the hardware makes (inf - inf):
        # every NaN then has the same bits, whichever operand numpy's loop
        # puts first
        nan = float("inf") - float("inf")
        values = [np.inf, -np.inf, nan, 0.0, -0.0, 1.0, -2.0]
        for seed in range(4):
            graph = self.mixed_arity_graph(seed)
            with np.errstate(invalid="ignore"):
                assert_update_matches_tape(graph, start_states(graph, values, 6, seed))

    def test_termless_sums_keep_their_bias(self):
        graph = node_graph(
            ["a"],
            [
                Relu(0.0, ()),
                Relu(-0.0, ()),
                Relu(-2.0, ()),
                Recip(-2.0, ()),
                relu(-0.0, (1.0, "a")),
            ],
        )
        states = np.array([[0.0, 1.0], [-0.0, 3.0]] + [[0.0, 0.0]] * 5)
        got = one_update(graph, states)
        assert got[2:6, 0].tolist() == [0.0, 0.0, 0.0, -0.5]
        assert_update_matches_tape(graph, states)
        for zero in (0.0, -0.0):
            g = node_graph(["a"], [Recip(zero, ())])
            with pytest.raises(ReciprocalZeroError) as err:
                run(g, [0.0, 0.0])
            assert (err.value.node, err.value.time_step) == ("o0", 2)

    @pytest.mark.parametrize("late_arity", [2, 1], ids=["same-bucket", "bucket-before"])
    def test_two_zero_reciprocals_name_the_lower_slot(self, late_arity):
        # "o0" lowers the 3-term reciprocal first, so its tape slot is the
        # lower one; the later reciprocal shares its bucket (2 terms) or
        # sits in the bucket before it, whose rows come first (1 term)
        early = recip(0.0, (1.0, "a"), (1.0, "b"), (1.0, "c"))
        late = recip(0.0, *[(1.0, n) for n in "ab"[:late_arity]])
        graph = node_graph(["a", "b", "c"], [relu(0.0, (1.0, early)), late])
        prog = compile_graph(graph)
        states = np.zeros((len(graph.nodes), 2))
        states[0] = [0.0, 1.0]
        with pytest.raises(ZeroDivisionError) as first:
            tape_update(prog, states[:, 0])
        assert first.value.args[0] < prog.node_slot["o1"]
        for cols in ([0], [0, 1]):
            with pytest.raises(ReciprocalZeroError) as err:
                rows = np.arange(len(graph.nodes))
                _advance(prog, states[:, cols], np.zeros((1, len(cols))), 1, 2, rows)
            assert (err.value.node, err.value.time_step) == ("o0", 2)

    def test_batch_one_against_batch_two(self):
        graph = self.mixed_arity_graph(11)
        values = [0.0, -0.0, 2.0**60, 1.5, -0.75, 1e-3]
        states = start_states(graph, values, 2, 11)
        single = one_update(graph, states[:, :1])
        both = one_update(graph, states)
        assert single.tobytes() == both[:, :1].tobytes()

    def test_pads_are_exact_identities(self):
        # every term reads a node row, so a cell reading any other row is
        # a pad: -0.0 with weight 1 in sums, 1.0 in products
        graph = self.mixed_arity_graph(3)
        prog = compile_graph(graph)
        sched = prog.schedule
        num_nodes = len(graph.nodes)
        pads = 0
        for lv in sched.levels:
            coef = np.ones(lv.src.size) if lv.coef is None else lv.coef[:, 0]
            for op, first, arity, _, n in lv.buckets:
                for cell in range(first, first + arity * n):
                    r = lv.src[cell]
                    if r < num_nodes:
                        continue
                    pads += 1
                    pad = sched.const_values[r - num_nodes]
                    if op == _PROD:
                        assert pad == 1.0
                    else:
                        assert (pad, np.signbit(pad), coef[cell]) == (0.0, True, 1.0)
        assert pads == sched.padded_cells - sched.term_cells > 0

    def test_fixture_schedule_counts(self):
        fixtures = os.path.join(os.path.dirname(nio.__file__), "fixtures")
        with open(os.path.join(fixtures, "model_circuit_n4.json")) as fh:
            prog = compile_graph(nio.graph_from_json(json.load(fh)))
        sched = prog.schedule
        assert len(prog.tape) == 141
        assert (len(sched.levels), sched.reductions) == (6, 11)
        assert (sched.term_cells, sched.padded_cells) == (295, 317)
        assert sched.term_cells == sum(
            len(e[1]) if e[0] == _PROD else len(e[2])
            for e in prog.tape
            if e[0] in (_RELU, _RECIP, _PROD)
        )

    @pytest.mark.parametrize(
        "tape",
        [
            [(_NODE, 0), (_RELU, 0.0, ((1.0, 2),)), (_RELU, 0.0, ((1.0, 0),))],
            [(_NODE, 0), (_RECIP, 1.0, ((1.0, 1),))],
            [(_NODE, 0), (_PROD, (0, 9))],
            [(_NODE, 0), (_RELU, 0.0, ((1.0, -1),))],
            [(_NODE, 2)],
            [(_NODE, -1)],
        ],
        ids=["later-slot", "itself", "past-tape", "negative-slot", "node-2-of-2", "node-minus-1"],
    )
    def test_schedule_rejects_rows_not_before_their_level(self, tape):
        graph = identity_echo_graph()
        node_index = {"in": 0, "out": 1}
        with pytest.raises(ValidationError, match="tape slot"):
            _schedule(tape, graph, node_index, {"out": len(tape) - 1})


# -- arity-1 and arity-2 buckets against the reduction they replace ---------


def reduced_update(sched, S):
    """Fill the level rows of ``S`` by reducing every bucket over its term
    axis (sums from -0.0, a width of one by accumulating), with the
    coefficient and bias columns broadcast: the reference for the
    kernel's arity-1 copies, arity-2 binary ops and expanded operands."""
    width = S.shape[1]
    for lv in sched.levels:
        cells = S.take(lv.src, axis=0)
        if lv.coef is not None:
            cells[: lv.sum_cells] *= lv.coef
        for op, c, arity, r, n in lv.buckets:
            terms = cells[c : c + arity * n].reshape(arity, n, width)
            if op == _PROD:
                np.multiply.reduce(terms, axis=0, out=S[r : r + n])
            elif width == 1:
                S[r : r + n] = np.add.accumulate(terms, axis=0)[-1]
            else:
                np.add.reduce(terms, axis=0, out=S[r : r + n], initial=-0.0)
        if lv.bias is not None:
            S[lv.relu.start : lv.recip.stop] += lv.bias
        np.maximum(S[lv.relu], 0.0, out=S[lv.relu])
        recip = S[lv.recip]
        recip[recip == 0.0] = 1.0
        np.divide(1.0, recip, out=recip)


def slot_rows(sched, states):
    """The slot array with ``states`` and the constants filled in."""
    num_nodes, width = states.shape
    S = np.empty((sched.num_rows, width))
    S[:num_nodes] = states
    S[num_nodes : num_nodes + len(sched.const_values)] = sched.const_values[:, None]
    return S


def assert_kernel_matches_reduction(graph, states):
    sched = compile_graph(graph).schedule
    got, want = slot_rows(sched, states), slot_rows(sched, states)
    scratch = np.empty(max(lv.src.size for lv in sched.levels) * states.shape[1])
    with np.errstate(invalid="ignore", over="ignore", under="ignore"):
        assert engine._evaluate(engine._bind(sched, got, scratch), got) is None
        reduced_update(sched, want)
    assert got.tobytes() == want.tobytes()


class TestBucketCalls:
    NAMES = ["a", "b", "c"]
    # the hardware's NaN (inf - inf) and numpy's, both zeros and both
    # infinities, subnormals, and terms whose sums round
    VALUES = [
        0.0,
        -0.0,
        np.inf,
        -np.inf,
        float("inf") - float("inf"),
        np.nan,
        5e-324,
        -1e-310,
        1.0,
        -3.0,
        0.1,
        2.0**60,
    ]

    def low_arity_graph(self):
        """Relu, reciprocal and product slots of arity 0-2 only, on two levels."""
        coefs = [1.0, -3.0, 0.5, 2.0**-30]
        exprs = []
        for j, (bias, c) in enumerate(product([0.0, -0.0, 0.5, -1.5], coefs)):
            x, y = self.NAMES[j % 3], self.NAMES[(j + 1) % 3]
            exprs += [relu(bias, (c, x)), relu(bias, (c, x), (coefs[j % 4 - 1], y))]
        exprs += [Relu(b, ()) for b in (0.0, -0.0, 2.0)] + [Recip(-2.0, ())]
        # no sum of these terms is -pi, so no denominator is zero
        exprs += [recip(np.pi, (0.5, "a")), recip(np.pi, (-3.0, "b"), (1.0, "c"))]
        exprs += [Prod((node("a"),)), prod("b", "a"), prod("c", "c")]
        exprs.append(relu(0.25, (-1.0, prod("a", "b")), (1.0, relu(-0.0, (2.0, "c")))))
        return node_graph(self.NAMES, exprs)

    def test_low_arity_graph_has_only_copies_and_binary_ops(self):
        sched = compile_graph(self.low_arity_graph()).schedule
        kinds = {(op == _PROD, arity) for lv in sched.levels for op, _, arity, _, _ in lv.buckets}
        assert kinds == {(False, 1), (False, 2), (True, 1), (True, 2)}
        assert len(sched.levels) == 2 and sched.padded_cells > sched.term_cells
        assert all(lv.coef is not None and lv.bias is not None for lv in sched.levels)

    @pytest.mark.parametrize("width", [1, 2, 3, 64])
    def test_low_arities_match_the_reduction_bytewise(self, width):
        graph = self.low_arity_graph()
        for seed in range(4):
            assert_kernel_matches_reduction(
                graph, start_states(graph, self.VALUES, width, seed)
            )

    @pytest.mark.parametrize("width", [1, 2, 3, 64])
    def test_mixed_arities_match_the_reduction_bytewise(self, width):
        graph = TestLevelKernel().mixed_arity_graph(width)
        assert_kernel_matches_reduction(graph, start_states(graph, self.VALUES, width, 7))

    def test_bound_operands_equal_the_broadcast_columns(self, sweep_circuit, monkeypatch):
        graph, prog, docs = sweep_circuit
        bind, widths = engine._bind, []

        def checked_bind(sched, S, scratch):
            bound = bind(sched, S, scratch)
            width = S.shape[1]
            widths.append(width)
            for b in bound:
                for got, column in ((b.coef, b.level.coef), (b.bias, b.level.bias)):
                    if column is None:
                        assert got is None
                        continue
                    assert got.flags.c_contiguous and got.shape == (len(column), width)
                    assert got.tobytes() == np.broadcast_to(column, got.shape).tobytes()
            return bound

        monkeypatch.setattr(engine, "_bind", checked_bind)
        shared = run(graph, docs, program=prog)
        # the start state holds the first token, and each token read
        # after it splits every group in two
        assert widths == [2, 4, 8, 16, 32, 64]
        assert shared.evaluated_columns < (shared.total_steps - 1) * docs.shape[1]
        assert any(lv.coef is not None and lv.bias is not None for lv in prog.schedule.levels)


# -- recorded outputs: a run keeps the output at the multiples of rnn_time --


@pytest.fixture(scope="module")
def sweep_circuit():
    """An n=6, k=2 boosted circuit and all 64 documents as one batch."""
    q, d, k, alpha, offset, size = boosted_instance(641, 6, 2)
    graph, _ = build_boosted_rnn(q, d, k, alpha, offset, size)
    docs = np.array(list(product(range(size), repeat=6)), dtype=float).T
    return graph, compile_graph(graph), docs


def outputs_of(full, graph):
    """The output row of an all-node trace at the multiples of rnn_time,
    shaped as ``run`` records it."""
    row = full.node_index[graph.output_id]
    period = graph.rnn_time
    return full.values[period - 1 :: period, row : row + 1]


class TestRecord:
    def test_run_keeps_the_outputs_of_the_full_trace(self, sweep_circuit):
        graph, prog, docs = sweep_circuit
        full = full_run(graph, docs)
        assert full.values.shape == (360, 54, 64)
        out = run(graph, docs, program=prog)
        assert out.values.shape == (6, 1, 64)
        assert out.total_steps == 360
        assert out.values.tobytes() == outputs_of(full, graph).tobytes()
        assert out.evaluated_columns == full.evaluated_columns

    def test_fixed_point_counts_saturations_of_unrecorded_nodes(self, sweep_circuit):
        graph, prog, docs = sweep_circuit
        # two integer bits saturate the counters, which are not recorded
        full = full_run(graph, docs, fixed_point=(2, 20))
        out = run(graph, docs, fixed_point=(2, 20), program=prog)
        assert out.values.tobytes() == outputs_of(full, graph).tobytes()
        assert out.saturation_events == full.saturation_events > 0

    def test_partial_period_keeps_the_last_whole_one(self):
        g = counter_graph(3)
        full = full_run(g, [0, 1, 0])
        tr = run(g, [0, 1, 0], total_steps=8)
        assert tr.total_steps == 8
        assert tr.values.tobytes() == outputs_of(full, g)[:2].tobytes()
        assert list(tr.output_at_multiples()) == [1, 2]

    def test_run_peaks_far_below_the_full_trace(self, sweep_circuit):
        graph, prog, docs = sweep_circuit
        full_bytes = 360 * len(graph.nodes) * docs.shape[1] * 8  # 13.8 MB
        tracemalloc.start()
        try:
            run(graph, docs, program=prog)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < full_bytes / 3

    def test_cap_raises_before_allocating(self, sweep_circuit, monkeypatch):
        graph, prog, docs = sweep_circuit
        monkeypatch.setenv("NTPBOOST_MAX_ENUM", str(docs.shape[1]))
        assert run(graph, docs, program=prog).values.shape == (6, 1, 64)
        monkeypatch.setenv("NTPBOOST_MAX_ENUM", str(docs.shape[1] - 1))

        def unreachable(*args, **kwargs):
            raise AssertionError("allocated before the cap check")

        monkeypatch.setattr(engine, "compile_graph", unreachable)
        monkeypatch.setattr(engine, "_start", unreachable)
        monkeypatch.setattr(engine, "_advance", unreachable)
        state_bytes = 8 * len(graph.nodes) * 64
        with pytest.raises(SizingError, match=f"{state_bytes} bytes"):
            run(graph, docs)
        monkeypatch.setattr(engine.Program, "new_state", unreachable)
        with pytest.raises(SizingError, match=f"trace {8 * 6 * 64} bytes"):
            run(graph, docs, program=prog)

    def test_circuit_tables_within_the_cap_tabulate(self, monkeypatch):
        # the runs behind the tables take 6 tokens x 2 steps x 64 documents
        # = 768 values, over a cap that the 188 table entries fit
        b2 = Alphabet(2)
        d = random_prefix_window_distinguisher(b2, 6, 2, rng_for(5))
        circuit = nio.distinguisher_from_graph(distinguisher_to_rnn(d, b2, 2), 2, 6)
        monkeypatch.setenv("NTPBOOST_MAX_ENUM", "188")
        got = circuit.tables(2)
        assert [t.tobytes() for t in got] == [t.tobytes() for t in d.tables(2)]

    def test_reading_an_unrecorded_node_or_time_is_a_validation_error(self):
        tr = run(counter_graph(3), [0, 1])
        assert tr.value("w0", 6).tolist() == [3.0]
        with pytest.raises(ValidationError, match="'in' was not recorded.*'w0'"):
            tr.value("in", 3)
        for t in (0, -3, 2, 9):
            with pytest.raises(ValidationError, match=f"time {t} was not recorded"):
                tr.value("w0", t)
