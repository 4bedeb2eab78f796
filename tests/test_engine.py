"""Engine semantics: stepping, schedules, determinism, gating, scrubbing."""

import json
import os

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
from ntpboost.errors import ReciprocalZeroError, ValidationError
from ntpboost.instances import random_prefix_window_distinguisher, random_text, rng_for
from ntpboost.rnn.engine import (
    _CONST,
    _NODE,
    _PROD,
    _RECIP,
    _RELU,
    _advance,
    compile_graph,
    quantize_array,
    run,
    step,
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
    ind_eq,
    ind_le,
    node,
    prod,
    recip,
    relu,
)
from ntpboost.rnn.gating import gated_augment
from ntpboost.rnn.graph import NodeSpec, RnnGraph
from ntpboost.rnn.sufficiency import verify_hidden_sufficiency
from ntpboost.rnn.universal import embed, universal_edges, universal_graph
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
        tr = run(counter_graph(6), [0, 1, 0])
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
        tr = run(g, [0, 0, 0, 0])
        # a: 2, 1, 0.5, 0.25 ; b: 1, 2, 2, 1
        assert [tr.scalar("a", t) for t in range(1, 5)] == [2.0, 1.0, 0.5, 0.25]
        assert [tr.scalar("b", t) for t in range(1, 5)] == [1.0, 2.0, 2.0, 1.0]

    def test_identity_echo(self):
        stream = [1, 0, 1, 1, 0]
        tr = run(identity_echo_graph(), stream)
        outs = tr.output_at_multiples()
        # output at t = i reads the input at t = i - 1: one-step echo with
        # the pointer having advanced, so compare shifted
        assert [int(tr.scalar("out", t)) for t in range(2, 6)] == stream[:4]

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
            assert tr.scalar("out", 3 * i + 3) == float(tok)

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
        tr = run(g, [0, 1, 0])
        assert [tr.scalar("acc", t) for t in range(1, 10)] == [0, 1, 2, 0, 1, 2, 0, 1, 2]
        assert [tr.scalar("held", t) for t in range(1, 10)] == list(range(9))
        assert tr.input_index.tolist() == [1, 1, 1, 2, 2, 2, 3, 3, 3]

    def test_fixed_point_snaps_every_update_and_counts_saturations(self):
        # with 2 integer bits the counter is capped at 4: every update
        # from t=5 on computes 5 and saturates back to 4
        tr = run(counter_graph(8), [0, 0], fixed_point=(2, 0))
        assert [tr.scalar("w0", t) for t in range(1, 17)] == [1, 2, 3] + [4] * 13
        assert tr.saturation_events == 12

    def test_batch_runs_match_single(self):
        g = counter_graph(4)
        streams = np.array([[0, 1], [1, 0], [0, 0]])  # (tokens, batch)
        tr = run(g, streams)
        single0 = run(g, streams[:, 0])
        assert np.array_equal(tr.values[:, :, 0], single0.values[:, :, 0])

    def test_determinism(self):
        g = counter_graph(5)
        a = run(g, [0, 1, 1])
        b = run(g, [0, 1, 1])
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


class TestGating:
    def make_controller(self, signal):
        # constant controller emitting `signal`
        return RnnGraph(
            nodes=[NodeSpec("in", 0.0, None), NodeSpec("sig", float(signal), node("sig"))],
            input_ids=("in",),
            output_id="sig",
            hidden_ids=("sig",),
            rnn_time=1,
        )

    def counter_target(self):
        return RnnGraph(
            nodes=[
                NodeSpec("in", 0.0, None),
                NodeSpec("cnt", 0.0, relu(1.0, (1.0, "cnt"))),
            ],
            input_ids=("in",),
            output_id="cnt",
            hidden_ids=(),
            rnn_time=1,
        )

    def test_hold_freezes(self):
        g = gated_augment(self.counter_target(), ["cnt"], self.make_controller(2))
        tr = run(g, [0] * 6)
        assert [tr.scalar("cnt", t) for t in range(1, 7)] == [0.0] * 6

    def test_run_matches_original(self):
        base = self.counter_target()
        g = gated_augment(base, ["cnt"], self.make_controller(1))
        tr = run(g, [0] * 6)
        tr0 = run(base, [0] * 6)
        got = [tr.scalar("cnt", t) for t in range(1, 7)]
        want = [tr0.scalar("cnt", t) for t in range(1, 7)]
        assert got == want

    def test_alternating_load_run_against_hand_simulation(self):
        # controller cycles LOAD, RUN: flag flips each step
        flip = case_select([(ind_eq("sig", 0.0), const(1.0))], const(0.0))
        ctl = RnnGraph(
            nodes=[NodeSpec("in", 0.0, None), NodeSpec("sig", 0.0, flip)],
            input_ids=("in",),
            output_id="sig",
            hidden_ids=("sig",),
            rnn_time=1,
        )
        src = RnnGraph(
            nodes=[
                NodeSpec("in", 0.0, None),
                NodeSpec("cnt", 0.0, relu(1.0, (1.0, "cnt"))),
                NodeSpec("ext0", 50.0, node("ext0")),
            ],
            input_ids=("in",),
            output_id="cnt",
            hidden_ids=(),
            rnn_time=1,
        )
        g = gated_augment(src, ["cnt"], ctl, external_source={"cnt": "ext0"})
        tr = run(g, [0] * 6)
        # hand simulation: sig_t = 0,1,0,1,... ; cnt_{t+1} = 50 if sig_t=0
        # else cnt_t + 1
        vals, sig, cnt = [], 0.0, 0.0
        for t in range(1, 7):
            vals.append(cnt)
            cnt = 50.0 if sig == 0.0 else cnt + 1.0
            sig = 1.0 - sig
        assert [tr.scalar("cnt", t) for t in range(1, 7)] == vals

    def test_invalid_controller_value_rejected(self):
        g = gated_augment(self.counter_target(), ["cnt"], self.make_controller(3))
        with pytest.raises(ValidationError, match="allowed values"):
            run(g, [0, 0])

    def test_size_accounting(self):
        base = self.counter_target()
        ctl = self.make_controller(1)
        g = gated_augment(base, ["cnt"], ctl, external_source={"cnt": "cnt"})
        # |Q| + |C|, sharing the stream input node
        assert g.size == base.size + ctl.size - 1


class TestUniversal:
    def test_minimal_shape(self):
        g = universal_graph(2, 1)
        assert g.size == 2
        assert g.hidden_size == 1

    def test_edge_count_matches_rules(self):
        # N=5, H=2: H*H + H + (H+R)*R with R = N-H-1 = 2
        edges = universal_edges(5, 2)
        assert len(edges) == 2 * 2 + 2 + (2 + 2) * 2

    def test_embedding_reproduces_traces(self):
        # token held 2 steps so the stateless block recomputes its readout
        # inside each window despite the reset-on-advance rule
        small = RnnGraph(
            nodes=[
                NodeSpec("in", 0.0, None),
                NodeSpec("acc", 0.0, relu(0.0, (1.0, "in"), (1.0, "acc"))),
                NodeSpec("out", 0.0, relu(-0.5, (2.0, "acc"))),
            ],
            input_ids=("in",),
            output_id="out",
            hidden_ids=("acc",),
            rnn_time=2,
        )
        uni = universal_graph(6, 3)
        mapping = {"in": "in", "acc": "h1", "out": "r1"}
        g = embed(uni, small, mapping)
        stream = [1, 0, 1, 1]
        tr_small = run(small, stream)
        tr_uni = run(g, stream)
        for i in range(1, 5):
            t = 2 * i
            assert tr_uni.scalar("r1", t) == tr_small.scalar("out", t)

    def test_illegal_embedding_rejected(self):
        small = RnnGraph(
            nodes=[
                NodeSpec("in", 0.0, None),
                NodeSpec("r", 0.0, relu(0.0, (1.0, "in"))),
            ],
            input_ids=("in",),
            output_id="r",
            hidden_ids=(),
            rnn_time=1,
        )
        uni = universal_graph(4, 2)
        with pytest.raises(ValidationError):
            # r reads the input directly but maps into the R block, where
            # input edges are not allowed
            embed(uni, small, {"in": "in", "r": "r1"})

    def test_h_must_be_smaller_than_n(self):
        from ntpboost.errors import PreconditionError

        with pytest.raises(PreconditionError):
            universal_graph(3, 3)


class TestSufficiency:
    def test_all_hidden_graph_passes(self):
        g = counter_graph(3)
        rng = np.random.default_rng(11)
        rep = verify_hidden_sufficiency(g, trials=10, rng=rng)
        assert rep.ok

    def test_constructed_counterexample_fails(self):
        # output depends on a non-hidden accumulator that carries state
        g = RnnGraph(
            nodes=[
                NodeSpec("in", 0.0, None),
                NodeSpec("acc", 0.0, relu(0.0, (1.0, "in"), (1.0, "acc"))),
                NodeSpec("out", 0.0, relu(0.0, (1.0, "acc"))),
            ],
            input_ids=("in",),
            output_id="out",
            hidden_ids=(),
            rnn_time=2,
        )
        rng = np.random.default_rng(13)
        rep = verify_hidden_sufficiency(g, trials=20, rng=rng)
        assert not rep.ok
        assert rep.first_failure()["diverged_at"] > rep.first_failure()["scrub_time"]


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
    pool += [(Const(c), c) for c in draw(st.lists(st.floats(0.0, 2.0), max_size=2))]
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


class TestKernelDifferential:
    @given(small_graphs())
    def test_each_step_matches_tree_evaluation(self, case):
        graph, streams = case
        tr = run(graph, streams)
        # a batch of one sums through the accumulate path, a batch of two
        # through the elementwise reduce: both give the same bytes
        single = run(graph, streams[:, 0])
        assert single.values.tobytes() == tr.values[:, :, :1].tobytes()
        names = [n.name for n in graph.nodes]
        for t in range(2, tr.total_steps + 1):
            for b in range(streams.shape[1]):
                prev = dict(zip(names, tr.values[t - 2, :, b]))
                for j, spec in enumerate(graph.nodes):
                    got = tr.values[t - 1, j, b]
                    if spec.expr is None:
                        assert got == streams[t - 1, b]
                    else:
                        assert abs(got - evaluate(spec.expr, prev)) <= 1e-12

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


def reference_tape(graph):
    """The tape as lowered through a cache keyed on each subtree's full
    structure, floats compared by value: a subtree equal to one lowered
    before reuses that slot, and the first emitted entry wins."""
    index = {n.name: j for j, n in enumerate(graph.nodes)}
    structures = {}

    def structure(e):
        if id(e) not in structures:
            if isinstance(e, Const):
                s = ("const", e.value)
            elif isinstance(e, Node):
                s = ("node", e.name)
            elif isinstance(e, Prod):
                s = ("prod", tuple(structure(f) for f in e.factors))
            else:
                s = (type(e).__name__, e.bias, tuple((c, structure(x)) for c, x in e.terms))
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

    def test_signed_zero_biases_merge_into_the_first(self):
        x = Node("x")
        neg, pos = Relu(-0.0, ((1.0, x),)), Relu(0.0, ((1.0, x),))
        nodes = [
            NodeSpec("x", 0.0, None),
            NodeSpec("a", 0.0, relu(0.0, (1.0, neg), (2.0, pos))),
            NodeSpec("b", 0.0, prod(pos, Const(0.0), Const(-0.0), neg)),
            NodeSpec("c", 0.0, Relu(-0.0, ((1.0, pos), (1.0, Const(-0.0))))),
        ]
        g = RnnGraph(nodes=nodes, input_ids=("x",), output_id="a", hidden_ids=(), rnn_time=1)
        assert_reference_tape(g)
        tape = compile_graph(g).tape
        assert repr(tape[1]) == "(2, -0.0, ((1.0, 0),))"  # the -0.0 sum came first
        assert len(tape) == 6  # x, the merged sum, a, the merged constant, b, c


# -- prefix sharing: columns with equal start state and tokens step once -----


def columns_alone(graph, streams):
    """Run each column as its own batch of one: the unshared reference."""
    runs = [run(graph, streams[:, b]) for b in range(streams.shape[1])]
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
        tr = run(graph, streams)
        want = columns_alone(graph, streams)
        assert tr.values.tobytes() == want.tobytes()
        assert tr.evaluated_columns == updates_times_prefixes(graph, 4, size)

    @given(small_graphs())
    def test_shared_batch_matches_single_runs_and_evaluate(self, case):
        graph, streams = case
        batch = streams[:, [0, 1, 0, 1, 1]]
        tr = run(graph, batch)
        want = columns_alone(graph, batch)
        assert tr.values.tobytes() == want.tobytes()
        names = [n.name for n in graph.nodes]
        for t in range(2, tr.total_steps + 1):
            prev = dict(zip(names, tr.values[t - 2, :, 0]))
            for j, spec in enumerate(graph.nodes):
                if spec.expr is not None:
                    got = tr.values[t - 1, j, 0]
                    assert abs(got - evaluate(spec.expr, prev)) <= 1e-12

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
        tr = run(g, streams)
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
        both, _, evaluated = _advance(prog, state, stream, 1, 4)
        for b in range(2):
            alone, _, _ = _advance(prog, state[:, b : b + 1], stream[:, :1], 1, 4)
            assert both[:, :, b : b + 1].tobytes() == alone.tobytes()
        assert evaluated == 3 * 2

    def test_one_stream_start_state_that_raises_is_not_merged(self):
        # the second column alone raises at t=4; the first never does
        g = self.decrementer()
        prog = compile_graph(g)
        state = np.array([[0.0, 0.0], [9.0, 2.0], [0.5, 0.5]])
        with pytest.raises(ReciprocalZeroError) as alone:
            _advance(prog, state[:, 1:], np.zeros((4, 1)), 1, 4)
        with pytest.raises(ReciprocalZeroError) as both:
            _advance(prog, state, np.zeros((4, 2)), 1, 4)
        assert (both.value.node, both.value.time_step) == ("y", 4)
        assert (both.value.node, both.value.time_step) == (
            alone.value.node,
            alone.value.time_step,
        )

    def test_identical_columns_count_saturations_per_column(self):
        tr = run(counter_graph(8), np.zeros((2, 2)), fixed_point=(2, 0))
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
