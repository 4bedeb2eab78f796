"""Compiled circuits: table lookups, synchronized enumeration, boosting.

The heavy acceptance matrices live in test_acceptance; here each layer
is exercised on a few seeded instances with exact or 1e-9 tolerances.
"""

import hashlib
import json
import math
from itertools import product

import numpy as np
import pytest

from ntpboost import io as nio
from ntpboost.boosting import boost_text
from ntpboost.construct import (
    boosted_hidden_formula,
    boosted_simple_size_formula,
    boosted_size_formula,
    boosted_time_formula,
    build_boosted_rnn,
    build_boosted_rnn_simple,
    case1_sample_time,
    distinguisher_to_rnn,
    lm_to_rnn,
    window_sample_time,
)
from ntpboost.construct.boosted import _check_readout
from ntpboost.construct.components import f1_part, f2_part, g_part
from ntpboost.construct.enumerator import build_scaffold, enumerator_part
from ntpboost.dist import (
    Alphabet,
    LanguageModel,
    extended_block_distribution,
    lm_to_text,
    text_to_lm,
    uniform_lm,
)
from ntpboost.distinguishers import (
    anchor_of,
    complement,
    constant_distinguisher,
    from_tables,
    table_shapes,
)
from ntpboost.errors import PreconditionError, ValidationError
from ntpboost.fixedpoint import (
    FixedPointFormat,
    build_boosted_rnn_quantized,
    minimal_fraction_bits,
    quantized_run,
)
from ntpboost.families import one_prefix_table_family, product_window_family
from ntpboost.instances import (
    dyadic_lm,
    random_prefix_window_distinguisher,
    random_text,
    random_window_table_distinguisher,
    rng_for,
)
from ntpboost.rnn import engine
from ntpboost.rnn.engine import compile_graph, run
from ntpboost.rnn.sufficiency import verify_hidden_sufficiency
from full_trace import full_run
from on_scaffold import alone
from oracles import table_bit
from reference_tables import reference_distinguisher_to_rnn, reference_lm_to_rnn

B2 = Alphabet(2)


def all_docs(n, size=2):
    return np.array(list(product(range(size), repeat=n))).T


def doc_tuple(docs, col):
    return tuple(int(x) for x in docs.T[col])


class TestCompiledTables:
    def test_lm_circuit_matches_table_exactly(self):
        rng = rng_for(501)
        t = random_text(B2, 3, rng)
        lm = text_to_lm(t)
        g = lm_to_rnn(lm, rnn_time=2)
        assert g.size == 3 + 4 and g.hidden_size == 3 + 2
        docs = all_docs(3)
        outs = run(g, docs).output_at_multiples()
        for col in range(docs.shape[1]):
            doc = doc_tuple(docs, col)
            for i in range(1, 4):
                assert outs[i][col] == lm.prob(doc[i - 1], doc[: i - 1])

    def test_lm_circuit_uniform_extension(self):
        # feeding more tokens than n yields the uniform conditional
        rng = rng_for(503)
        lm = text_to_lm(random_text(B2, 2, rng))
        g = lm_to_rnn(lm, rnn_time=2)
        stream = [0, 1, 1, 0]
        tr = run(g, np.array(stream))
        for i in (3, 4):
            assert tr.value("out", i * 2)[0] == 0.5

    def test_distinguisher_circuit_trailing_window(self):
        rng = rng_for(509)
        n, k = 4, 2
        d = random_prefix_window_distinguisher(B2, n, k, rng)
        g = distinguisher_to_rnn(d, B2, rnn_time=2)
        assert g.size == n + 4
        docs = all_docs(n)
        tr = run(g, docs)
        for col in range(docs.shape[1]):
            doc = doc_tuple(docs, col)
            for m in range(k, n + 1):
                want = float(table_bit(d.tables(2), m - k + 1, doc, 2, k))
                assert tr.value("out", m * 2)[col] == want

    def test_rnn_time_floor(self):
        lm = uniform_lm(B2, 2)
        with pytest.raises(PreconditionError):
            lm_to_rnn(lm, rnn_time=1)


def random_member(family, rng):
    """A member number with each of the family's keys held at random."""
    return sum(1 << int(j) for j in np.flatnonzero(rng.integers(0, 2, family.keys)))


def table_kinds(alphabet, n, k, rng):
    """One seeded distinguisher of each kind the repo builds."""
    size = alphabet.size
    prefix_window = random_prefix_window_distinguisher(alphabet, n, k, rng)
    one_prefix = one_prefix_table_family(alphabet, n, k)
    product_window = product_window_family(alphabet, n, k)
    tables = [rng.integers(0, 2, shape) for shape in table_shapes(k, n, size)]
    return {
        "prefix_window": prefix_window,
        "window": random_window_table_distinguisher(alphabet, n, k, rng),
        "one_prefix": one_prefix[random_member(one_prefix, rng)],
        "product_window": product_window[random_member(product_window, rng)],
        "from_tables": from_tables(k, n, size, tables),
        "constant_0": constant_distinguisher(k, n, 0),
        "constant_1": constant_distinguisher(k, n, 1),
        "complement": complement(prefix_window),
    }


def order_lm(alphabet, n, order, rng):
    """Random model whose conditionals read the last ``order`` tokens: the
    rows of a level that share that suffix are equal, the others differ."""
    size, levels = alphabet.size, []
    for i in range(n):
        raw = rng.random((size ** min(i, order), size)) + 0.05
        rows = raw / raw.sum(axis=1, keepdims=True)
        levels.append(np.tile(rows, (size ** max(i - order, 0), 1)))
    return LanguageModel(alphabet, n, tuple(levels))


def model_kinds(alphabet, n, rng):
    """One seeded model of each order the differential tests cover."""
    return {
        "full_order": text_to_lm(random_text(alphabet, n, rng)),
        "order_1": order_lm(alphabet, n, 1, rng),
        "order_2": order_lm(alphabet, n, 2, rng),
        "uniform": uniform_lm(alphabet, n),
    }


class TestSuffixTables:
    """Each table compiles over the prefix suffix it reads, with the same
    bits as the full-prefix compilers of ``tests/reference_tables.py``."""

    @pytest.mark.parametrize(
        "size,n,k",
        [(s, n, k) for s in (2, 3) for n in range(1, 6) for k in range(1, 4) if k <= n],
    )
    def test_every_node_and_step_matches_the_full_prefix_reference(self, size, n, k):
        # strings of n + k - 1 tokens also feed the windows past the
        # document end, as the enumerator does, and reach a model's uniform
        # tail when k > 1
        alphabet = Alphabet(size)
        streams = all_docs(n + k - 1, size)
        rng = rng_for(700 + 10 * n + k)
        pairs = [
            (kind, distinguisher_to_rnn(d, alphabet, 2),
             reference_distinguisher_to_rnn(d, alphabet, 2))
            for kind, d in table_kinds(alphabet, n, k, rng).items()
        ]
        pairs += [
            (kind, lm_to_rnn(lm, 2), reference_lm_to_rnn(lm, 2))
            for kind, lm in model_kinds(alphabet, n, rng).items()
        ]
        for kind, circuit, reference in pairs:
            got, want = full_run(circuit, streams), full_run(reference, streams)
            assert got.node_index == want.node_index, kind
            assert got.values.tobytes() == want.values.tobytes(), kind

    @pytest.mark.parametrize("size,n,k", [(2, 4, 2), (2, 5, 3), (3, 3, 1), (3, 4, 2)])
    def test_full_prefix_tables_compile_as_before(self, size, n, k):
        # D_i[0] and the row that differs from it in the first prefix token
        # disagree, so every D_i depends on its whole prefix
        alphabet = Alphabet(size)
        rng = rng_for(720 + n)
        tables = [rng.integers(0, 2, shape) for shape in table_shapes(k, n, size)]
        for i, table in enumerate(tables[1:], 2):
            table[size ** (i - 2), 0] = 1 - table[0, 0]
        d = from_tables(k, n, size, tables)
        lm = text_to_lm(random_text(alphabet, n, rng))
        for compiler, reference, table in (
            (distinguisher_to_rnn, reference_distinguisher_to_rnn, (d, alphabet)),
            (lm_to_rnn, reference_lm_to_rnn, (lm,)),
        ):
            got = nio.graph_to_json(compiler(*table, 3))
            want = nio.graph_to_json(reference(*table, 3))
            assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)

    @pytest.mark.parametrize("k", [2, 3])
    def test_one_prefix_members_grow_linearly_in_n(self, k):
        # at n = 10 the full-prefix compiler gives these members 6,109 to
        # 47,316 term cells; member numbers mean the same keys at every n
        family = one_prefix_table_family(B2, 4, k)
        for m in (1, 2**family.keys - 1, random_member(family, rng_for(740 + k))):
            cells = []
            for n in (4, 6, 8, 10):
                member = one_prefix_table_family(B2, n, k)[m]
                circuit = distinguisher_to_rnn(member, B2, 2)
                cells.append(compile_graph(circuit).schedule.term_cells)
            steps = np.diff(cells)
            assert cells[-1] < 1_000, (m, cells)
            assert (steps <= steps[0]).all(), (m, cells)

    @pytest.mark.parametrize(
        "order,cells",
        [(0, (153, 191, 229)), (1, (253, 331, 409)), (2, (365, 499, 633))],
    )
    def test_order_m_models_grow_linearly_in_n(self, order, cells):
        # each step of 2 in n adds the same cells; at n = 6 / 8 / 10 the
        # full-prefix compiler gives each of these models 1,169 / 5,303 /
        # 24,797 term cells
        got = []
        for n in (6, 8, 10):
            lm = order_lm(B2, n, order, rng_for(750 + n))
            circuit = lm_to_rnn(lm, 2)
            got.append(compile_graph(circuit).schedule.term_cells)
            outs = run(circuit, all_docs(n)).output_at_multiples()
            want = lm.conditionals()
            for i in range(1, n + 1):
                assert outs[i].tobytes() == want[i - 1].tobytes(), (n, i)
        assert tuple(got) == cells


class TestSuffixTablesInBoostedCircuits:
    @pytest.mark.parametrize(
        "seed,size,n,k,order",
        [(731, 2, 6, 2, None), (733, 3, 3, 2, None), (735, 2, 5, 2, 1)],
        ids=["731-2-6-2", "733-3-3-2", "735-2-5-2-order_1"],
    )
    def test_same_outputs_and_report_with_fewer_cells(self, seed, size, n, k, order):
        # (731, 2, 6, 2) has the shape of the sweep benchmark's instances;
        # Q is full-order unless an order is given
        alphabet = Alphabet(size)
        rng = rng_for(seed)
        p, qt = random_text(alphabet, n, rng), random_text(alphabet, n, rng)
        if order is not None:
            qt = lm_to_text(order_lm(alphabet, n, order, rng))
        res = boost_text(p, qt, random_prefix_window_distinguisher(alphabet, n, k, rng))
        lm = text_to_lm(qt)
        docs = all_docs(n, size)
        built = {}
        for name, lm_compiler, d_compiler in (
            ("suffix", lm_to_rnn, distinguisher_to_rnn),
            ("reference", reference_lm_to_rnn, reference_distinguisher_to_rnn),
        ):
            q, D = lm_compiler(lm, 2), d_compiler(res.applied, alphabet, 2)
            args = (q, D, k, res.alpha, res.offset, size)
            built[name] = build_boosted_rnn(*args), build_boosted_rnn_simple(*args)
        (Qp, report), Qs = built["suffix"]
        (Qp_ref, report_ref), Qs_ref = built["reference"]
        assert report == report_ref
        for graph, ref in ((Qp, Qp_ref), (Qs, Qs_ref)):
            assert run(graph, docs).values.tobytes() == run(ref, docs).values.tobytes()
            cells = compile_graph(graph).schedule.padded_cells
            assert cells < compile_graph(ref).schedule.padded_cells


def symbolic_loop_position(t, period, tau, k, B):
    """(i1, mu, j1, r1, s1) per the enumerator's timing decomposition."""
    i1 = -(-t // period)
    mu = (-(-t // tau) - 1) % (B * k + k) + 1
    j1 = -(-mu // k)
    r1 = (mu - 1) % k + 1
    s1 = (t - 1) % tau + 1
    return i1, mu, j1, r1, s1


class TestCounterTraces:
    @pytest.mark.parametrize("i0_star", [0, 1])
    def test_closed_forms(self, i0_star):
        rng = rng_for(521 + i0_star)
        n, k = 4, 2
        lm = text_to_lm(random_text(B2, n, rng))
        q = lm_to_rnn(lm, 2)
        tau = q.rnn_time + 4
        U, sc = alone(lambda sc: enumerator_part(q, sc, "u."), k, i0_star, tau)
        B = 2**k
        stream = np.array([1, 0, 1, 1])
        tr = full_run(U, stream)
        strings = [tuple(s) for s in product(range(2), repeat=k)]
        for t in range(1, 4 * sc.period + 1):
            i1, mu, j1, r1, s1 = symbolic_loop_position(t, sc.period, tau, k, B)
            assert tr.scalar("c.w0", t) == (t - 1) % sc.period + 1
            assert tr.scalar("c.w", t) == s1
            # u holds the digit index of the next step
            _, _, _, r1_next, _ = symbolic_loop_position(t + 1, sc.period, tau, k, B)
            assert tr.scalar("c.u", t) == r1_next
            assert tr.scalar("c.vc", t) == min(i1, i0_star + 1)
            if i1 > i0_star:
                anchor = anchor_of(i1, i0_star, k)
            else:
                anchor = i0_star - k
            assert tr.scalar("c.u0", t) == i1 - anchor
            # the emitted digit matches the symbolic schedule
            want_ve = 0.0 if j1 == B + 1 else float(strings[j1 - 1][r1 - 1])
            assert tr.scalar("c.ve", t) == want_ve


class TestSyncEnumerator:
    @pytest.mark.parametrize("n,k,i0_star", [(4, 2, 0), (4, 2, 1), (3, 1, 0), (4, 3, 2)])
    def test_outputs_match_direct_evaluation(self, n, k, i0_star):
        rng = rng_for(541 + n + k + i0_star)
        t = random_text(B2, n, rng)
        lm = text_to_lm(t)
        q = lm_to_rnn(lm, 2)
        tau = q.rnn_time + 4
        U, sc = alone(lambda sc: enumerator_part(q, sc, "u."), k, i0_star, tau)
        # the enumerator's own nodes, on top of its scaffold
        assert U.size - len(sc.nodes) == q.size + q.hidden_size - 1
        assert U.hidden_size - (len(sc.nodes) - 1) == q.hidden_size

        def g_q(prefix):
            m = len(prefix)
            if m > n:
                return 0.5
            return lm.prob(prefix[-1], tuple(prefix[: m - 1]))

        strings = [tuple(s) for s in product(range(2), repeat=k)]
        docs = all_docs(n)
        tr = full_run(U, docs)
        for col in range(docs.shape[1]):
            doc = doc_tuple(docs, col)
            for i in range(1, i0_star + 1):
                got = tr.value(U.output_id, case1_sample_time(sc, i))[col]
                assert abs(got - g_q(doc[:i])) < 1e-15
            for i in range(i0_star + 1, n + 1):
                a = anchor_of(i, i0_star, k)
                for j, z in enumerate(strings, start=1):
                    for r in range(1, k + 1):
                        got = tr.value(U.output_id, window_sample_time(sc, i, j, r))[col]
                        assert abs(got - g_q(doc[:a] + z[:r])) < 1e-15

    def test_constant_model_constant_windows(self):
        # 1-token alphabet corner is out of scope; constant conditionals
        # over a binary alphabet: every window output is the same constant
        lm = uniform_lm(B2, 3)
        q = lm_to_rnn(lm, 2)
        U, sc = alone(lambda sc: enumerator_part(q, sc, "u."), 1, 0, q.rnn_time + 4)
        tr = full_run(U, np.array([0, 1, 0]))
        for i in range(1, 4):
            for j in (1, 2):
                got = tr.scalar(U.output_id, window_sample_time(sc, i, j, 1))
                assert got == 0.5

    def test_tau_precondition(self):
        q = lm_to_rnn(uniform_lm(B2, 2), 3)
        with pytest.raises(PreconditionError):
            alone(lambda sc: enumerator_part(q, sc, "u."), 1, 0, tau=4)


class TestComponents:
    def setup_instance(self, seed, n=4, k=2, i0_star=1, alpha=0.35):
        rng = rng_for(seed)
        t = random_text(B2, n, rng)
        lm = text_to_lm(t)
        d = random_prefix_window_distinguisher(B2, n, k, rng)
        q = lm_to_rnn(lm, 2)
        D = distinguisher_to_rnn(d, B2, 2)
        tau = max(q.rnn_time, D.rnn_time) + 4
        return t, lm, d, q, D, tau

    def test_f1_window_probabilities(self):
        n, k, i0_star = 4, 2, 1
        t, lm, d, q, D, tau = self.setup_instance(547)
        f1, sc = alone(lambda sc: f1_part(q, sc), k, i0_star, tau)
        assert f1.size - len(sc.nodes) == q.size + q.hidden_size
        strings = [tuple(s) for s in product(range(2), repeat=k)]
        docs = all_docs(n)
        tr = full_run(f1, docs)
        for col in range(docs.shape[1]):
            doc = doc_tuple(docs, col)
            for i in range(1, i0_star + 1):
                got = tr.value(f1.output_id, i * sc.period - 1)[col]
                assert abs(got - lm.prob(doc[i - 1], doc[: i - 1])) < 1e-15
            for i in range(i0_star + 1, n + 1):
                a = anchor_of(i, i0_star, k)
                blk = extended_block_distribution(t, doc[:a], k)
                for j, z in enumerate(strings, start=1):
                    tt = (i - 1) * sc.period + j * k * tau - 1
                    widx = int("".join(map(str, z)), 2)
                    assert abs(tr.value(f1.output_id, tt)[col] - blk[widx]) < 1e-12

    def test_f1_uniform_model_quarter(self):
        lm = uniform_lm(B2, 4)
        q = lm_to_rnn(lm, 2)
        f1, sc = alone(lambda sc: f1_part(q, sc), 2, 0, q.rnn_time + 4)
        tr = full_run(f1, np.array([0, 1, 0, 1]))
        for i in (1, 2, 3):
            for j in (1, 2, 3, 4):
                tt = (i - 1) * sc.period + j * 2 * sc.tau - 1
                assert tr.scalar(f1.output_id, tt) == 0.25

    def test_f2_exponentials(self):
        n, k, i0_star, alpha = 4, 2, 1, 0.35
        t, lm, d, q, D, tau = self.setup_instance(557)
        f2, sc = alone(lambda sc: f2_part(D, sc, alpha), k, i0_star, tau)
        assert f2.size - len(sc.nodes) == D.size + D.hidden_size
        strings = [tuple(s) for s in product(range(2), repeat=k)]
        docs = all_docs(n)
        tr = full_run(f2, docs)
        for col in range(docs.shape[1]):
            doc = doc_tuple(docs, col)
            for i in range(i0_star + 1, n + 1):
                a = anchor_of(i, i0_star, k)
                kc = min(k, n - a)
                for j, z in enumerate(strings, start=1):
                    tt = (i - 1) * sc.period + j * k * tau - 1
                    bit = table_bit(d.tables(2), a + 1, doc[:a] + z[:kc], 2, k)
                    want = math.exp(-alpha * bit)
                    assert tr.value(f2.output_id, tt)[col] == want

    def test_f2_constant_distinguishers(self):
        alpha = 0.6
        zero = distinguisher_to_rnn(constant_distinguisher(2, 4, 0), B2, 2)
        one = distinguisher_to_rnn(constant_distinguisher(2, 4, 1), B2, 2)
        for D, want in ((zero, 1.0), (one, math.exp(-alpha))):
            f2, sc = alone(lambda sc: f2_part(D, sc, alpha), 2, 0, D.rnn_time + 4)
            tr = full_run(f2, np.array([0, 1, 0, 1]))
            for i in (1, 2, 3, 4):
                for j in (1, 2, 3, 4):
                    tt = (i - 1) * sc.period + j * 2 * sc.tau - 1
                    assert tr.scalar(f2.output_id, tt) == want

    def test_g_indicator_sweep(self):
        n, k, i0_star = 4, 2, 1
        g, sc = alone(g_part, k, i0_star, 6)
        strings = [tuple(s) for s in product(range(2), repeat=k)]
        docs = all_docs(n)
        tr = full_run(g, docs)
        for col in range(docs.shape[1]):
            doc = doc_tuple(docs, col)
            for i in range(i0_star + 1, n + 1):
                a = anchor_of(i, i0_star, k)
                r0 = i - a
                realized = doc[a:i]
                for j, z in enumerate(strings, start=1):
                    tt = (i - 1) * sc.period + j * k * sc.tau - 1
                    assert tr.value("g.v1", tt)[col] == float(z[:r0] == realized)
                    assert tr.value("g.v2", tt)[col] == float(
                        z[: r0 - 1] == realized[: r0 - 1]
                    )

    def test_g_first_digit_mismatch(self):
        # first enumerated string is all zeros; a document starting the
        # block with token 1 kills g1 at r0 = 1
        g, sc = alone(g_part, 2, 0, 6)
        tr = full_run(g, np.array([1, 0, 1, 0]))
        tt = 2 * sc.tau - 1  # i=1, j=1 (z = 00), r0 = 1
        assert tr.scalar("g.v1", tt) == 0.0

    def test_g_r0_one_gives_g2_one(self):
        g, sc = alone(g_part, 2, 0, 6)
        tr = full_run(g, np.array([1, 0, 1, 0]))
        for j in (1, 2, 3, 4):
            tt = j * 2 * sc.tau - 1  # i=1 has r0 = 1
            assert tr.scalar("g.v2", tt) == 1.0


class TestSizeFormulas:
    def test_boosted_size_arithmetic(self):
        assert boosted_size_formula(10, 3, 5, 2, 2) == 38
        assert boosted_hidden_formula(3, 2, 2) == 15
        assert boosted_time_formula(2, 2, 3, 1) == 70
        assert boosted_simple_size_formula(10, 5, 2) == 46

    def test_g_size(self):
        # g's own nodes, on top of its scaffold; none of them is hidden
        for k in (1, 2, 3):
            g, sc = alone(g_part, k, 0, 6)
            assert g.size - len(sc.nodes) == k + 2
            assert g.hidden_size == len(sc.nodes) - 1


class TestScaffoldHidden:
    def test_scaffold_nodes_after_the_input_are_hidden(self):
        # every graph holds the nodes of one scaffold: its input is the
        # graph's only input and every later scaffold node is hidden
        p, qt, res, q, D = build_instance(631, 4, 2)
        tau = max(q.rnn_time, D.rnn_time) + 4
        args = (q, D, 2, res.alpha, 1, 2)
        builds = [
            alone(lambda sc: enumerator_part(q, sc, "u."), 2, 1, tau)[0],
            alone(g_part, 2, 1, tau)[0],
            build_boosted_rnn(*args)[0],
            build_boosted_rnn_simple(*args),
        ]
        sc = build_scaffold(2, 2, tau, 1)
        assert len(sc.nodes) == 2 * 2 + 7 and sc.nodes[0].expr is None
        for graph in builds:
            assert graph.input_ids == (sc.input,)
            specs = graph.node_map()
            for spec in sc.nodes[1:]:
                assert specs[spec.name] == spec and spec.name in graph.hidden_ids
        assert pinned_quantized().graph.input_ids == ("c.in",)


def build_instance(seed, n, k):
    rng = rng_for(seed)
    p = random_text(B2, n, rng)
    qt = random_text(B2, n, rng)
    d = random_prefix_window_distinguisher(B2, n, k, rng)
    res = boost_text(p, qt, d)
    q = lm_to_rnn(text_to_lm(qt), 2)
    D = distinguisher_to_rnn(res.applied, B2, 2)
    return p, qt, res, q, D


class TestBoostedRnn:
    @pytest.mark.parametrize("seed,n,k", [(601, 4, 2), (602, 3, 1), (603, 4, 1)])
    def test_outputs_match_analytic(self, seed, n, k):
        p, qt, res, q, D = build_instance(seed, n, k)
        Qp, report = build_boosted_rnn(q, D, k, res.alpha, res.offset, 2)
        assert report.built_size == boosted_size_formula(
            q.size, q.hidden_size, D.size, D.hidden_size, k
        )
        docs = all_docs(n)
        outs = run(Qp, docs).output_at_multiples()
        for col in range(docs.shape[1]):
            doc = doc_tuple(docs, col)
            for i in range(1, n + 1):
                want = res.lm_boosted.prob(doc[i - 1], doc[: i - 1])
                assert abs(outs[i][col] - want) < 1e-9

    def test_zero_distinguisher_keeps_conditionals(self):
        rng = rng_for(607)
        n, k = 4, 2
        qt = random_text(B2, n, rng)
        lm = text_to_lm(qt)
        q = lm_to_rnn(lm, 2)
        D = distinguisher_to_rnn(constant_distinguisher(k, n, 0), B2, 2)
        Qp, _ = build_boosted_rnn(q, D, k, 0.0, 0, 2)
        docs = all_docs(n)
        outs = run(Qp, docs).output_at_multiples()
        for col in range(docs.shape[1]):
            doc = doc_tuple(docs, col)
            for i in range(1, n + 1):
                assert abs(outs[i][col] - lm.prob(doc[i - 1], doc[: i - 1])) < 1e-12

    def test_boosted_circuits_are_refused_as_q_or_d(self):
        # their non-hidden clocks and latches read themselves, so they carry
        # state within a token that copied hidden sets would lose
        p, qt, res, q, D = build_instance(7, 3, 2)
        args = (2, res.alpha, res.offset, 2)
        Qp, _ = build_boosted_rnn(q, D, *args)
        Qs = build_boosted_rnn_simple(q, D, *args)
        for graph, first in ((Qp, "f1.Ht.w"), (Qs, "qs.w")):
            with pytest.raises(PreconditionError, match=f"Q node '{first}'"):
                build_boosted_rnn(graph, D, *args)
            with pytest.raises(PreconditionError, match=f"D node '{first}'"):
                build_boosted_rnn(q, graph, *args)

    def test_loss_certificate_through_rnn_outputs(self):
        # read the compiled conditionals back off the circuit and verify
        # the certified loss drop with exact-table arithmetic
        from ntpboost.dist import LanguageModel, next_token_loss

        p, qt, res, q, D = build_instance(611, 4, 2)
        if res.alpha == 0:
            pytest.skip("degenerate draw")
        Qp, _ = build_boosted_rnn(q, D, 2, res.alpha, res.offset, 2)
        docs = all_docs(4)
        outs = run(Qp, docs).output_at_multiples()
        levels = [np.zeros((2**m, 2)) for m in range(4)]
        for col in range(docs.shape[1]):
            doc = doc_tuple(docs, col)
            for i in range(1, 5):
                pref = int("".join(map(str, doc[: i - 1])), 2) if i > 1 else 0
                levels[i - 1][pref, doc[i - 1]] = outs[i][col]
        lm_rnn = LanguageModel(B2, 4, tuple(levels))
        before = next_token_loss(p, text_to_lm(qt))
        after = next_token_loss(p, lm_rnn)
        assert after - before <= -res.alpha**2 / (4 * 2) + 1e-9


class TestSimpleConstruction:
    @pytest.mark.parametrize("seed,n,k", [(617, 4, 2), (619, 3, 1)])
    def test_trace_equivalence_with_efficient(self, seed, n, k):
        p, qt, res, q, D = build_instance(seed, n, k)
        Qp, _ = build_boosted_rnn(q, D, k, res.alpha, res.offset, 2)
        Qs = build_boosted_rnn_simple(q, D, k, res.alpha, res.offset, 2)
        docs = all_docs(n)
        a = run(Qp, docs).output_at_multiples()
        b = run(Qs, docs).output_at_multiples()
        for i in range(1, n + 1):
            assert np.max(np.abs(a[i] - b[i])) < 1e-12

    def test_both_constructions_declare_the_alphabet(self):
        p, qt, res, q, D = build_instance(619, 3, 1)
        Qp, _ = build_boosted_rnn(q, D, 1, res.alpha, res.offset, 2)
        Qs = build_boosted_rnn_simple(q, D, 1, res.alpha, res.offset, 2)
        for graph in (Qp, Qs):
            assert graph.meta["alphabet_size"] == graph.meta["base"] == 2
            with pytest.raises(ValidationError, match="alphabet"):
                run(graph, [0, 2, 1])

    def test_size_comparison(self):
        # doubling beats hidden-copying only when |Q| is small
        p, qt, res, q, D = build_instance(623, 4, 2)
        Qp, _ = build_boosted_rnn(q, D, 2, res.alpha, res.offset, 2)
        Qs = build_boosted_rnn_simple(q, D, 2, res.alpha, res.offset, 2)
        assert Qs.size == 2 * q.size + 2 * D.size + 3 * 2 + 10
        simple_minus_eff = Qs.size - Qp.size
        # with |Q| = |D| = n + 3 and hidden n + 2 the doubling construction
        # is smaller until q grows beyond its hidden set; record the margin
        assert simple_minus_eff == (q.size - q.hidden_size) + (
            D.size - D.hidden_size
        ) + (3 * 2 + 10) - (3 * 2 + 12)


class TestDoublingChain:
    def test_boost_2_takes_the_boost_1_circuit_as_it_is(self):
        # the chain recipe at n=3, k=2: a boosted circuit has one input
        # node, so it is the next boost's Q without renaming any node
        n, k = 3, 2
        rng = rng_for(7)
        p, qt = random_text(B2, n, rng), random_text(B2, n, rng)
        q = lm_to_rnn(text_to_lm(qt), 2)
        for _ in range(2):
            res = boost_text(p, qt, random_prefix_window_distinguisher(B2, n, k, rng))
            d = distinguisher_to_rnn(res.applied, B2, 2)
            args = (q, d, k, res.alpha, res.offset, 2)
            boosted = build_boosted_rnn_simple(*args)
            assert boosted.size == boosted_simple_size_formula(q.size, d.size, k)
            assert len(boosted.input_ids) == 1
            q, qt = boosted, res.q_boosted
        outs = run(q, all_docs(n)).values[:, 0, :]
        assert np.max(np.abs(outs - res.lm_boosted.conditionals())) < 1e-9
        # the efficient construction copies hidden sets only
        with pytest.raises(PreconditionError, match="Q node 'qs.w'"):
            build_boosted_rnn(*args)


class TestHiddenSufficiency:
    def test_all_constructed_graphs_pass_scrubbing(self):
        p, qt, res, q, D = build_instance(631, 4, 2)
        tau = max(q.rnn_time, D.rnn_time) + 4
        U, _ = alone(lambda sc: enumerator_part(q, sc, "u."), 2, res.offset % 2, tau)
        f1, _ = alone(lambda sc: f1_part(q, sc), 2, 1, tau)
        f2, _ = alone(lambda sc: f2_part(D, sc, res.alpha), 2, 1, tau)
        g, _ = alone(g_part, 2, 1, tau)
        Qp, _ = build_boosted_rnn(q, D, 2, res.alpha, res.offset, 2)
        Qs = build_boosted_rnn_simple(q, D, 2, res.alpha, res.offset, 2)
        rng = rng_for(677)
        for graph in (q, D, U, f1, f2, g, Qp, Qs):
            rep = verify_hidden_sufficiency(graph, trials=6, rng=rng)
            assert rep.ok, (graph.meta.get("kind"), rep.first_failure())

    def test_scrubbing_catches_broken_hidden_set(self):
        # deliberately demote a latch from the hidden set: outputs then
        # depend on a scrubbed node and the harness must notice
        rng = rng_for(641)
        lm = text_to_lm(random_text(B2, 3, rng))
        g = lm_to_rnn(lm, 2)
        broken = type(g)(
            nodes=list(g.nodes),
            input_ids=g.input_ids,
            output_id=g.output_id,
            hidden_ids=tuple(h for h in g.hidden_ids if h != "p1"),
            rnn_time=g.rnn_time,
            meta=dict(g.meta),
        )
        rep = verify_hidden_sufficiency(broken, trials=30, rng=rng)
        assert not rep.ok



def mid_token_gaps(graph, frac, n_tokens, trials, rng):
    """Largest output change at each multiple of rnn_time after a scrub of
    the non-hidden, non-input rows at ``frac`` of the second token period.

    Baseline and scrubbed columns share one batch, advanced by
    ``engine._start`` and ``engine._advance`` as the scrubbing harness
    advances them; row i - 2 of the result is the output at i * rnn_time.
    """
    prog = compile_graph(graph)
    period = graph.rnn_time
    keep = set(graph.hidden_ids) | set(graph.input_ids)
    rows = [j for j, spec in enumerate(graph.nodes) if spec.name not in keep]
    size = graph.meta["alphabet_size"]
    streams = rng.choice(size, size=(n_tokens, trials)).astype(float)
    both = np.concatenate([streams, streams], axis=1)
    t_scrub = period + int(frac * period)
    assert period < t_scrub < 2 * period
    state, _ = engine._start(prog, both, None)
    _, state, _, _ = engine._advance(prog, state, both, 1, t_scrub, [])
    garbage = rng.uniform(0.0, 3.0, size=(len(rows), trials))
    state[np.ix_(rows, range(trials, 2 * trials))] = garbage
    out_row = prog.node_index[graph.output_id]
    out, _, _, _ = engine._advance(
        prog, state, both, t_scrub, n_tokens * period, [out_row], every=period
    )
    return np.abs(out[:, 0, :trials] - out[:, 0, trials:]).max(axis=1)


class TestMidTokenScrub:
    """The semantic twin of ``build_boosted_rnn``'s readout check: a
    scrub inside a token leaves the outputs of the circuits it accepts as
    Q and D unchanged, and moves those of the boosted circuits it refuses.
    The token-boundary harness (``verify_hidden_sufficiency``) cannot
    tell them apart."""

    FRACTIONS = (0.25, 0.5, 0.9)

    @pytest.mark.parametrize("seed,size", [(7, 2), (11, 3), (1049, 2)])
    def test_table_circuits_ignore_the_scrub(self, seed, size):
        alphabet = Alphabet(size)
        rng = rng_for(seed)
        n, k = 3, 2
        p, qt = random_text(alphabet, n, rng), random_text(alphabet, n, rng)
        res = boost_text(p, qt, random_prefix_window_distinguisher(alphabet, n, k, rng))
        for graph in (
            lm_to_rnn(text_to_lm(qt), 10),
            distinguisher_to_rnn(res.applied, alphabet, 10),
        ):
            _check_readout(graph, "Q")
            for frac in self.FRACTIONS:
                gaps = mid_token_gaps(graph, frac, n, 20, rng_for(seed + 1))
                assert gaps.max() <= 1e-12, (graph.meta["kind"], frac, gaps)

    @pytest.mark.parametrize("seed,size", [(7, 2), (11, 3), (1049, 2)])
    def test_boosted_circuits_follow_the_scrub(self, seed, size):
        alphabet = Alphabet(size)
        rng = rng_for(seed)
        n, k = 3, 2
        p, qt = random_text(alphabet, n, rng), random_text(alphabet, n, rng)
        res = boost_text(p, qt, random_prefix_window_distinguisher(alphabet, n, k, rng))
        q = lm_to_rnn(text_to_lm(qt), 2)
        d = distinguisher_to_rnn(res.applied, alphabet, 2)
        args = (q, d, k, res.alpha, res.offset, size)
        for graph in (build_boosted_rnn(*args)[0], build_boosted_rnn_simple(*args)):
            with pytest.raises(PreconditionError):
                _check_readout(graph, "Q")
            assert verify_hidden_sufficiency(graph, trials=20, rng=rng_for(seed + 2)).ok
            for frac in self.FRACTIONS:
                gaps = mid_token_gaps(graph, frac, n, 20, rng_for(seed + 1))
                assert gaps[0] > 1e-12, (graph.meta["kind"], frac, gaps)

# -- pinned output: graphs and tapes stay byte-identical ----------------------

# sha256 of the sorted-key graph JSON followed by the repr of the compiled
# tape, for seeded instances of every builder.  A change to the compile
# layer (expressions, renaming, lowering) must leave all of them as they are.
# The distinguisher_to_rnn, build_boosted_rnn, build_boosted_rnn_simple and
# build_boosted_rnn_quantized digests were re-pinned once when D's tables
# began to compile over the prefix suffix they read: the graphs hold fewer
# terms, with the same outputs (TestSuffixTables).  The lm_to_rnn digests
# did not move.  All of them were re-pinned once when every counter became
# a ``cycle`` or ``saturate`` gadget: the step counters wrap at their top
# and share that indicator, so the tapes are shorter, with the same node
# counts and outputs.  The boosted digests were re-pinned once more when
# each boosted circuit got one scaffold that all its components read: the
# graphs have fewer nodes and one input node, with the same outputs
# (OUTPUT_DIGESTS).
BUILD_DIGESTS = {
    (601, "lm_to_rnn"): "39db17c1b0f9b9d7a000a6642d8e0c37e8ccb3e0fb051fbf8fc0d84aab6ed5d3",
    (601, "distinguisher_to_rnn"): "72a33ef72fc11e28b4dd70ec5bd2044c5cefbded7f8f8481ec6d93a4aba80c0d",
    (601, "build_boosted_rnn"): "163651c89ba8ec6f038a1e5940608e14c8a2a3e2ab742541d3eca6b09a114bc8",
    (601, "build_boosted_rnn_simple"): "8c749bf92025a91b9e1f54ad9de533e154bb95d42818f9865a5a262f5b62aec2",
    (602, "lm_to_rnn"): "1f53e114a10741d1192167601b95579c756d98e193be94a4b091805648df7ee5",
    (602, "distinguisher_to_rnn"): "dbfe731ba1e1556dc7d0ff3289510fe03cba71575136dd515d81f84835acc27d",
    (602, "build_boosted_rnn"): "fe3fc419910945b0a1285e901900de6b86e82aa668ba08861925ec9ff887aea3",
    (602, "build_boosted_rnn_simple"): "bdc34d1a7e267484796d1f2d8bda21610e8d1392a1e08eb46abd7ba97500f1b0",
    (605, "lm_to_rnn"): "e6c70e98bf144525efa401a9f18567526dca27114de7b68ee2a6d13b9f28315d",
    (605, "distinguisher_to_rnn"): "7514fed9a78f1dc99a5e12d6ed15b1a3a9dcfb8981c086ee9e12dd1c85ac84a4",
    (605, "build_boosted_rnn"): "43f7b8c2bd968afe1087992974410e6c7cccf4b1cdd6d2a9cbb0abe16d70381a",
    (605, "build_boosted_rnn_simple"): "a67d41010e185fceee45537275fc0cc65b2bf481ac53b4b04246ac114653e645",
    (1061, "build_boosted_rnn_quantized"): "4544a338a03c9669e52d810e837653212915c008a78fe2beb589571da6cf49b0",
}


def build_digest(graph) -> str:
    h = hashlib.sha256(json.dumps(nio.graph_to_json(graph), sort_keys=True).encode())
    h.update(repr(compile_graph(graph).tape).encode())
    return h.hexdigest()


# sha256 of each pinned build's outputs at every multiple of rnn_time over
# all of Sigma^n; for the quantized build followed by quantized_run's
# outputs and its saturation count.  Unlike BUILD_DIGESTS these hash no
# node name or tape entry, so a change that renames, merges or reorders
# nodes with the same behaviour leaves them as they are.
OUTPUT_DIGESTS = {
    (601, "lm_to_rnn"): "54616d38f69e54e0453dc09f4100a691107c30d8d0743c1f10c11b7547903073",
    (601, "distinguisher_to_rnn"): "fb702df662ca8c539ed155ebd56473928df5fd6c174d46179ba5a5ee4a4df3b0",
    (601, "build_boosted_rnn"): "cdf99c6e721b761d3c7508fac5e797f48c20e0263f358b8217c98cdc5381bd40",
    (601, "build_boosted_rnn_simple"): "cdf99c6e721b761d3c7508fac5e797f48c20e0263f358b8217c98cdc5381bd40",
    (602, "lm_to_rnn"): "b518c7779551fadb974d8faf27b88c98af6ea69a73da6e961c999437c9e3f5b2",
    (602, "distinguisher_to_rnn"): "ea3da988e7b03395ace7c2920d52cdbf7c67802df84b20e521570de28bb6ccf7",
    (602, "build_boosted_rnn"): "af8f104dc5ff16a08408d0575255528fdbac30b256f1da1a28a9d69ef60472b6",
    (602, "build_boosted_rnn_simple"): "af8f104dc5ff16a08408d0575255528fdbac30b256f1da1a28a9d69ef60472b6",
    (605, "lm_to_rnn"): "a183c01232788537ba3ba53a24533d45ffdcbdb4b67feb3ad10ea1e0eb4cad07",
    (605, "distinguisher_to_rnn"): "5734c89d92a9d59521dc977dac2e6f5aa01a742030f40aa55e48222d3e342b30",
    (605, "build_boosted_rnn"): "c4b39632f33a08b04a24bc16c15a5d17dad92d8f59f48a94240156690995cf8e",
    (605, "build_boosted_rnn_simple"): "c4b39632f33a08b04a24bc16c15a5d17dad92d8f59f48a94240156690995cf8e",
    (1061, "build_boosted_rnn_quantized"): "fc6171896d11907cc22d9c3c0e1b3731ec5a7dea59618bfed7df9d2ab0e14d37",
}

PINNED_INSTANCES = [(601, 2, 4, 2, 2), (602, 2, 3, 1, 2), (605, 3, 3, 2, 3)]


def pinned_builds(seed, size, n, k, rnn_time) -> dict:
    alphabet = Alphabet(size)
    rng = rng_for(seed)
    p, qt = random_text(alphabet, n, rng), random_text(alphabet, n, rng)
    res = boost_text(p, qt, random_prefix_window_distinguisher(alphabet, n, k, rng))
    q = lm_to_rnn(text_to_lm(qt), rnn_time)
    d = distinguisher_to_rnn(res.applied, alphabet, rnn_time)
    args = (q, d, k, res.alpha, res.offset, size)
    return {
        "lm_to_rnn": q,
        "distinguisher_to_rnn": d,
        "build_boosted_rnn": build_boosted_rnn(*args)[0],
        "build_boosted_rnn_simple": build_boosted_rnn_simple(*args),
    }


def pinned_quantized():
    # the instance of verify's quantized-boost check
    rng = rng_for(1061)
    n, k, ell = 4, 1, 1 / 8
    p = random_text(B2, n, rng)
    lm = dyadic_lm(B2, n, rng, frac_bits=14, min_conditional=ell)
    res = boost_text(p, lm_to_text(lm), random_prefix_window_distinguisher(B2, n, k, rng))
    assert res.alpha > 0
    bf = max(minimal_fraction_bits(k, res.alpha, ell), 14)
    return build_boosted_rnn_quantized(
        lm_to_rnn(lm, 2),
        distinguisher_to_rnn(res.applied, B2, 2),
        k, res.alpha, res.offset, 2,
        FixedPointFormat(20, bf), FixedPointFormat(2, 8), ell,
    )


def output_digest(graph, docs, fmt=None) -> str:
    h = hashlib.sha256(run(graph, docs).values.tobytes())
    if fmt is not None:
        tq = quantized_run(graph, fmt, docs)
        h.update(tq.values.tobytes())
        h.update(str(tq.saturation_events).encode())
    return h.hexdigest()


class TestPinnedBuilds:
    @pytest.mark.parametrize("seed,size,n,k,rnn_time", PINNED_INSTANCES)
    def test_table_and_boosted_builders(self, seed, size, n, k, rnn_time):
        graphs = pinned_builds(seed, size, n, k, rnn_time)
        for name, graph in graphs.items():
            assert build_digest(graph) == BUILD_DIGESTS[seed, name], name

    def test_quantized_builder(self):
        out = pinned_quantized()
        assert build_digest(out.graph) == BUILD_DIGESTS[1061, "build_boosted_rnn_quantized"]

    @pytest.mark.parametrize("seed,size,n,k,rnn_time", PINNED_INSTANCES)
    def test_table_and_boosted_outputs(self, seed, size, n, k, rnn_time):
        docs = all_docs(n, size)
        for name, graph in pinned_builds(seed, size, n, k, rnn_time).items():
            assert output_digest(graph, docs) == OUTPUT_DIGESTS[seed, name], name

    def test_quantized_outputs(self):
        out = pinned_quantized()
        got = output_digest(out.graph, all_docs(4), out.format)
        assert got == OUTPUT_DIGESTS[1061, "build_boosted_rnn_quantized"]
