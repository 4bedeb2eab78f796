"""File formats, loaders, CLI subcommands, reproducibility."""

import json
import os
from types import SimpleNamespace

import numpy as np
import pytest

from ntpboost import cli
from ntpboost import io as nio
from ntpboost.cli import main
from ntpboost.construct import lm_to_rnn
from ntpboost.dist import Alphabet, TextDistribution, text_to_lm
from ntpboost.distinguishers import advantage, constant_distinguisher
from ntpboost.errors import FormatError, NtpboostError, ValidationError
from ntpboost.families import one_prefix_table_family
from ntpboost.instances import (
    random_prefix_window_distinguisher,
    random_text,
    rng_for,
)
from ntpboost.rnn.engine import run
from ntpboost.rnn.expr import relu
from ntpboost.rnn.graph import NodeSpec, RnnGraph
from ntpboost.selfboost import Schedule
from full_trace import full_run

B2 = Alphabet(2)
FIXTURES = os.path.join(os.path.dirname(nio.__file__), "fixtures")


def fixture(name):
    return os.path.join(FIXTURES, name)


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_text(path) -> str:
    with open(path) as fh:
        return fh.read()


def read_bytes(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


class TestDistributionFormat:
    def test_round_trip(self, tmp_path):
        rng = rng_for(901)
        t = random_text(B2, 3, rng)
        path = tmp_path / "d.json"
        nio.write_json_atomic(str(path), nio.distribution_to_json(t))
        back = nio.distribution_from_json(nio.read_json(str(path)))
        assert np.max(np.abs(back.probs - t.probs)) < 1e-15

    def test_valid_uniform_fixture_loads(self):
        t = nio.distribution_from_json(nio.read_json(fixture("uniform_n2.json")))
        assert t.n == 2 and abs(t.probs.sum() - 1) < 1e-12

    def test_bad_normalization_names_tolerance(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"alphabet_size": 2, "n": 1, "probs": [0.5, 0.48]}))
        with pytest.raises(FormatError, match="1e-09"):
            nio.distribution_from_json(nio.read_json(str(path)))

    def test_negative_prob_rejected_with_location(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"alphabet_size": 2, "n": 1, "probs": [1.5, -0.5]})
        )
        with pytest.raises(FormatError, match="probs/1"):
            nio.distribution_from_json(nio.read_json(str(path)))

    def test_nan_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"alphabet_size": 2, "n": 1, "probs": [NaN, 1.0]}')
        with pytest.raises(FormatError):
            nio.distribution_from_json(nio.read_json(str(path)))


class TestDistinguisherFormat:
    def test_table_round_trip_preserves_semantics(self, tmp_path):
        rng = rng_for(907)
        d = random_prefix_window_distinguisher(B2, 4, 2, rng)
        payload = nio.distinguisher_to_json(d, B2)
        path = tmp_path / "d.json"
        nio.write_json_atomic(str(path), payload)
        back = nio.distinguisher_from_json(nio.read_json(str(path)), B2)
        for a, b in zip(back.tables(2), d.tables(2)):
            assert np.array_equal(a, b)

    def test_table_round_trip_ternary(self, tmp_path):
        b3 = Alphabet(3)
        rng = rng_for(909)
        d = random_prefix_window_distinguisher(b3, 3, 2, rng)
        path = tmp_path / "d.json"
        nio.write_json_atomic(str(path), nio.distinguisher_to_json(d, b3))
        back = nio.distinguisher_from_json(nio.read_json(str(path)), b3)
        for a, b in zip(back.tables(3), d.tables(3)):
            assert np.array_equal(a, b)

    def test_bad_key_length_rejected(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(
            json.dumps(
                {"kind": "table", "k": 1, "n": 2, "entries": {"1:011": 1}}
            )
        )
        with pytest.raises(FormatError, match="key length"):
            nio.distinguisher_from_json(nio.read_json(str(path)), B2)

    @pytest.mark.parametrize(
        "key,bit,message",
        [
            ("1:0", 2, "entry value 2 is not a bit"),
            ("1-0", 1, "bad entry key '1-0'"),
            ("3:000", 1, "position 3 outside [1, 2]"),
            ("0:", 1, "position 0 outside [1, 2]"),
            ("1:011", 1, "key length 3 != |x_(:i+k)| = 1"),
            ("2:0", 1, "key length 1 != |x_(:i+k)| = 2"),
            ("2:02", 1, "token outside alphabet"),
        ],
    )
    def test_each_bad_entry_is_located_at_its_key(self, key, bit, message):
        obj = {"kind": "table", "k": 1, "n": 2, "entries": {"1:1": 1, key: bit}}
        with pytest.raises(FormatError) as err:
            nio.distinguisher_from_json(obj, B2, "d.json")
        assert str(err.value) == f"{message} (at d.json/entries/{key})"
        assert err.value.location == f"d.json/entries/{key}"

    def test_rnn_kind_evaluates_through_engine(self, tmp_path):
        rng = rng_for(911)
        d = random_prefix_window_distinguisher(B2, 3, 1, rng)
        from ntpboost.construct import distinguisher_to_rnn

        g = distinguisher_to_rnn(d, B2, 2)
        payload = {"kind": "rnn", "k": 1, "n": 3, "graph": nio.graph_to_json(g)}
        path = tmp_path / "d.json"
        nio.write_json_atomic(str(path), payload)
        back = nio.distinguisher_from_json(nio.read_json(str(path)), B2)
        p = random_text(B2, 3, rng)
        q = random_text(B2, 3, rng)
        assert abs(advantage(back, p, q) - advantage(d, p, q)) < 1e-12

    @pytest.mark.parametrize(
        "key,file_k,file_n,size",
        [("k", 1, 4, 2), ("n", 2, 5, 2), ("alphabet_size", 2, 4, 3)],
    )
    def test_rnn_kind_meta_must_agree(self, key, file_k, file_n, size):
        # the circuit is compiled for k = 2, n = 4 and |Sigma| = 2
        from ntpboost.construct import distinguisher_to_rnn

        d = random_prefix_window_distinguisher(B2, 4, 2, rng_for(913))
        graph = nio.graph_to_json(distinguisher_to_rnn(d, B2, 2))
        payload = {"kind": "rnn", "k": file_k, "n": file_n, "graph": graph}
        with pytest.raises(FormatError) as err:
            nio.distinguisher_from_json(payload, Alphabet(size), "d.json")
        assert err.value.location == f"d.json/graph/meta/{key}"

    def test_table_writer_refuses_alphabets_over_ten(self):
        # token 10 would be written as two digits, which the reader refuses
        d = constant_distinguisher(1, 1, 1)
        assert nio.distinguisher_to_json(d, Alphabet(10))["entries"]["1:9"] == 1
        with pytest.raises(ValidationError, match="single digits"):
            nio.distinguisher_to_json(d, Alphabet(11))


class TestGraphFormat:
    def test_round_trip_trace_identical(self, tmp_path):
        rng = rng_for(919)
        lm = text_to_lm(random_text(B2, 3, rng))
        g = lm_to_rnn(lm, 2)
        path = tmp_path / "g.json"
        nio.write_json_atomic(str(path), nio.graph_to_json(g))
        back = nio.graph_from_json(nio.read_json(str(path)))
        stream = np.array([1, 0, 1])
        a = full_run(g, stream)
        b = full_run(back, stream)
        assert np.array_equal(a.values, b.values)

    def test_model_circuit_fixture_is_the_compiled_model(self, tmp_path):
        # fixtures/README.md: model_circuit_n4 is model_n4 compiled by
        # lm_to_rnn at two steps per token
        model = nio.distribution_from_json(nio.read_json(fixture("model_n4.json")))
        path = str(tmp_path / "circuit.json")
        nio.write_json_atomic(path, nio.graph_to_json(lm_to_rnn(text_to_lm(model), 2)))
        with open(path, "rb") as got, open(fixture("model_circuit_n4.json"), "rb") as want:
            assert got.read() == want.read()

    def test_domain_checks_survive_a_round_trip(self, tmp_path):
        g = RnnGraph(
            nodes=[NodeSpec("in", 0.0, None), NodeSpec("c", 0.0, relu(0.0, (1.0, "in")))],
            input_ids=("in",),
            output_id="c",
            hidden_ids=(),
            rnn_time=1,
            meta={"domain_checks": [("c", [0.0, 1.0])]},
        )
        path = tmp_path / "g.json"
        nio.write_json_atomic(str(path), nio.graph_to_json(g))
        back = nio.graph_from_json(nio.read_json(str(path)))
        assert back.meta["domain_checks"] == [["c", [0.0, 1.0]]]
        for graph in (g, back):
            with pytest.raises(ValidationError, match="emitted 2.0 at t=3"):
                run(graph, [0.0, 2.0, 2.0])

    def test_hidden_invariant_checked_at_load(self, tmp_path):
        payload = {
            "nodes": [
                {"id": "in", "init": 0.0, "expr": None},
                {"id": "h", "init": 0.0, "expr": "(relu 0.0 (1.0 (node r)))"},
                {"id": "r", "init": 0.0, "expr": "(relu 0.0 (1.0 (node in)))"},
            ],
            "input_ids": ["in"],
            "output_id": "r",
            "hidden_ids": ["h"],
            "rnn_time": 2,
        }
        path = tmp_path / "g.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError, match="hidden node 'h' reads"):
            nio.graph_from_json(nio.read_json(str(path)))


def run_cli(*argv):
    return main(list(argv))


def decimal_digits(value):
    """Decimal string of a nonnegative integer, 1000 digits at a time."""
    chunks = []
    while True:
        value, low = divmod(value, 10**1000)
        chunks.append(low)
        if not value:
            break
    return str(chunks[-1]) + "".join(f"{c:01000d}" for c in reversed(chunks[:-1]))


def selfboost_twice(tmp_path, cfg):
    """The selfboost artifacts of two runs of one config, as bytes."""
    cfg_path = str(tmp_path / "cfg.json")
    nio.write_json_atomic(cfg_path, cfg)
    outs = []
    for tag in ("a", "b"):
        out = str(tmp_path / tag)
        assert run_cli("selfboost", "--out", out, "--config", cfg_path) == 0
        outs.append(
            tuple(
                read_bytes(os.path.join(out, name))
                for name in ("selfboost_trace.json", "rounds.csv", "final_model.json")
            )
        )
    return outs


class TestCli:
    def test_boost_then_simulate_consistency(self, tmp_path):
        out = str(tmp_path / "run")
        rc = run_cli(
            "boost",
            "--out", out,
            "--train", fixture("train_n4.json"),
            "--model", fixture("model_n4.json"),
            "--distinguisher", fixture("distinguisher_n4_k2.json"),
        )
        assert rc == 0
        result = load_json(os.path.join(out, "boost_result.json"))
        boosted = nio.distribution_from_json(
            nio.read_json(os.path.join(out, "boosted_distribution.json"))
        )
        p = nio.distribution_from_json(nio.read_json(fixture("train_n4.json")))
        q = nio.distribution_from_json(nio.read_json(fixture("model_n4.json")))
        from ntpboost.dist import kl

        assert abs(result["kl_after"] - kl(p, boosted)) < 1e-9
        assert (
            result["kl_after"]
            <= result["kl_before"] - result["guaranteed_drop"] + 1e-9
        )

    def test_boost_refuses_circuit_with_another_k(self, tmp_path, capsys):
        # a k = 2 circuit saved as k = 1 would boost with another predicate
        from ntpboost.construct import distinguisher_to_rnn

        d = nio.distinguisher_from_json(
            nio.read_json(fixture("distinguisher_n4_k2.json")), B2
        )
        graph = nio.graph_to_json(distinguisher_to_rnn(d, B2, 2))
        path = str(tmp_path / "d.json")
        nio.write_json_atomic(path, {"kind": "rnn", "k": 1, "n": 4, "graph": graph})
        rc = run_cli(
            "boost",
            "--out", str(tmp_path / "o"),
            "--train", fixture("train_n4.json"),
            "--model", fixture("model_n4.json"),
            "--distinguisher", path,
        )
        assert rc == 2
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["message"].endswith(f"(at {path}/graph/meta/k)")
        assert not os.path.exists(str(tmp_path / "o"))

    def test_construct_then_simulate_matches_boost(self, tmp_path):
        # cross-command consistency: compile circuits for the fixture pair,
        # then the simulated boosted circuit agrees with the analytic boost
        from ntpboost.boosting import boost_text
        from ntpboost.construct import distinguisher_to_rnn

        out = str(tmp_path / "c")
        p = nio.distribution_from_json(nio.read_json(fixture("train_n4.json")))
        q = nio.distribution_from_json(nio.read_json(fixture("model_n4.json")))
        d = nio.distinguisher_from_json(
            nio.read_json(fixture("distinguisher_n4_k2.json")), B2
        )
        res = boost_text(p, q, d)
        d_graph = distinguisher_to_rnn(res.applied, B2, 2)
        dpath = str(tmp_path / "d_graph.json")
        nio.write_json_atomic(dpath, nio.graph_to_json(d_graph))
        rc = run_cli(
            "construct",
            "--out", out,
            "--model", fixture("model_circuit_n4.json"),
            "--distinguisher", dpath,
            "--k", "2",
            "--alpha", repr(res.alpha),
            "--offset", str(res.offset),
        )
        assert rc == 0
        report = load_json(os.path.join(out, "construction_report.json"))
        assert report["built_size"] == report["formula_size"]

        sim_out = str(tmp_path / "s")
        rc = run_cli(
            "simulate",
            "--out", sim_out,
            "--graph", os.path.join(out, "boosted_graph.json"),
            "--input", "0,1,1,0",
        )
        assert rc == 0
        sim = load_json(os.path.join(sim_out, "simulation.json"))
        doc = (0, 1, 1, 0)
        for i in range(1, 5):
            want = res.lm_boosted.prob(doc[i - 1], doc[: i - 1])
            assert abs(sim["outputs"][str(i)] - want) < 1e-9

    def test_selfboost_and_report(self, tmp_path):
        cfg = load_json(fixture("selfboost_config.json"))
        cfg["distribution_file"] = fixture("train_n4.json")
        cfg_path = str(tmp_path / "cfg.json")
        nio.write_json_atomic(cfg_path, cfg)
        out = str(tmp_path / "sb")
        rc = run_cli("selfboost", "--out", out, "--config", cfg_path)
        assert rc == 0
        trace = load_json(os.path.join(out, "selfboost_trace.json"))
        assert trace["termination"] == "loss_plateau"
        csv_text = read_text(os.path.join(out, "rounds.csv"))
        assert csv_text.splitlines()[0] == "round,N_i,H_i,T_i,L_i,KL,alpha"
        rep_out = str(tmp_path / "rep")
        rc = run_cli(
            "report", "--out", rep_out,
            "--trace", os.path.join(out, "selfboost_trace.json"),
        )
        assert rc == 0
        assert (
            read_text(os.path.join(rep_out, "rounds.csv")) == csv_text
        )

    def test_selfboost_with_compile_flag(self, tmp_path):
        # at eps=0.02, k=2 the first round boosts (8 times), so the compile
        # hook builds and checks its circuits through the CLI
        cfg = load_json(fixture("selfboost_config.json"))
        cfg.update(
            distribution_file=fixture("train_n4.json"), epsilon=0.02, k=2, compile=True
        )
        cfg_path = str(tmp_path / "cfg.json")
        nio.write_json_atomic(cfg_path, cfg)
        out = str(tmp_path / "sbc")
        rc = run_cli("selfboost", "--out", out, "--config", cfg_path)
        assert rc == 0
        trace = load_json(os.path.join(out, "selfboost_trace.json"))
        boosted_rounds = [r for r in trace["rounds"] if r["boosts"] > 0]
        assert boosted_rounds
        assert all(r["compiled"] for r in boosted_rounds)

    def test_selfboost_writes_budget_times_of_any_size(self, tmp_path):
        # at eps=0.05, k=2 the starting index is in the thousands, and the
        # time budget (8k|Sigma|^k)^(i-1) tau has tens of thousands of digits
        cfg = load_json(fixture("selfboost_config.json"))
        cfg.update(distribution_file=fixture("train_n4.json"), epsilon=0.05, k=2)
        cfg_path = str(tmp_path / "cfg.json")
        nio.write_json_atomic(cfg_path, cfg)
        out = str(tmp_path / "sb")
        assert run_cli("selfboost", "--out", out, "--config", cfg_path) == 0
        trace = load_json(os.path.join(out, "selfboost_trace.json"))
        rows = read_text(os.path.join(out, "rounds.csv")).splitlines()[1:]
        schedule = Schedule("plain", 7, 2, 3, 0.05, B2)
        assert len(rows) == len(trace["rounds"]) >= 1
        for r, row in zip(trace["rounds"], rows):
            want = decimal_digits(schedule.time(r["index"]))
            assert len(want) > 4300
            assert r["budget_time"] == want
            assert row.split(",")[3] == want

    @pytest.mark.parametrize(
        "value",
        [0, 7, 2**128 - 1, 2**128, 2**129 + 7, 10**5000 - 1, 3 * 64**30_000],
        ids=["0", "7", "2^128-1", "2^128", "2^129+7", "10^5000-1", "3*64^30000"],
    )
    def test_exact_decimal_writes_every_digit(self, value):
        assert cli._exact_decimal(value) == decimal_digits(value)

    def test_compile_hook_names_first_divergence(self, monkeypatch):
        p = random_text(B2, 4, rng_for(83))
        family = one_prefix_table_family(B2, 4, 2)
        real_run = cli.engine_run

        def skewed_run(graph, docs):
            # break position 1 of document 9 and position 2 of document 5:
            # document order puts (0, 1, 0, 1) first, at prefix (0,)
            trace = real_run(graph, docs)
            trace.values[0, 0, 9] += 0.5
            trace.values[1, 0, 5] += 0.5
            return trace

        hook = cli.make_compile_hook(p, family)
        step = SimpleNamespace(member_index=3)
        assert hook(None, None, [step]) is True
        monkeypatch.setattr(cli, "engine_run", skewed_run)
        with pytest.raises(NtpboostError, match=r"at prefix \(0,\), token 1$"):
            hook(None, None, [step])

    def test_byte_identical_reruns(self, tmp_path):
        cfg = load_json(fixture("selfboost_config.json"))
        cfg["distribution_file"] = fixture("train_n4.json")
        outs = selfboost_twice(tmp_path, cfg)
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("k", [2, 3], ids=["2^27-members", "2^81-members"])
    def test_ternary_selfboost_beyond_a_member_matrix(self, tmp_path, k):
        # |Sigma|=3: a one-prefix family of 2^(3^(k+1)) members
        dist_path = str(tmp_path / "train.json")
        raw = rng_for(89).random(3**4) ** 4 + 1e-3
        p = TextDistribution(Alphabet(3), 4, raw / raw.sum())
        nio.write_json_atomic(dist_path, nio.distribution_to_json(p))
        cfg = load_json(fixture("selfboost_config.json"))
        cfg.update(distribution_file=dist_path, k=k, epsilon=0.1)
        outs = selfboost_twice(tmp_path, cfg)
        assert outs[0] == outs[1]
        trace = json.loads(outs[0][0])
        assert trace["termination"] == "loss_plateau"
        assert trace["rounds"][0]["boosts"] > 0
        assert trace["final_advantage"] <= cfg["epsilon"]

    def test_error_is_machine_readable(self, tmp_path, capsys):
        rc = run_cli(
            "boost",
            "--out", str(tmp_path),
            "--train", "/nonexistent.json",
            "--model", fixture("model_n4.json"),
            "--distinguisher", fixture("distinguisher_n4_k2.json"),
        )
        assert rc == 2
        err = capsys.readouterr().err
        payload = json.loads(err.strip().splitlines()[-1])
        assert payload["error"] == "FormatError"

    @pytest.mark.parametrize("cap", ["abc", "0", "-4"])
    def test_bad_enumeration_cap_is_machine_readable(
        self, tmp_path, capsys, monkeypatch, cap
    ):
        monkeypatch.setenv("NTPBOOST_MAX_ENUM", cap)
        rc = run_cli(
            "boost",
            "--out", str(tmp_path),
            "--train", fixture("train_n4.json"),
            "--model", fixture("model_n4.json"),
            "--distinguisher", fixture("distinguisher_n4_k2.json"),
        )
        assert rc == 2
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert "NTPBOOST_MAX_ENUM" in payload["message"]

    def test_construct_needs_model_alphabet(self, tmp_path, capsys):
        graph = load_json(fixture("model_circuit_n4.json"))
        del graph["meta"]["alphabet_size"]
        model = str(tmp_path / "model.json")
        nio.write_json_atomic(model, graph)
        rc = run_cli(
            "construct",
            "--out", str(tmp_path / "c"),
            "--model", model,
            "--distinguisher", model,
            "--k", "2",
            "--alpha", "0.1",
        )
        assert rc == 2
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "FormatError"
        assert "alphabet_size" in payload["message"]

    @pytest.mark.parametrize(
        "flags, error, flag",
        [
            (["--k", "0"], "PreconditionError", "--k"),
            (["--k", "-1"], "PreconditionError", "--k"),
            (["--k", "1"], "FormatError", "--k"),  # the circuit's meta says k 2
            (["--offset", "2"], "PreconditionError", "--offset"),
            (["--offset", "-1"], "PreconditionError", "--offset"),
            (["--alpha", "nan"], "PreconditionError", "--alpha"),
            (["--alpha", "inf"], "PreconditionError", "--alpha"),
            (["--alpha", "1.5"], "PreconditionError", "--alpha"),
            (["--alpha", "-0.1"], "PreconditionError", "--alpha"),
        ],
        ids=["k-zero", "k-negative", "k-not-meta", "offset-k", "offset-negative",
             "alpha-nan", "alpha-inf", "alpha-above-one", "alpha-negative"],
    )
    def test_construct_checks_flags_before_building(
        self, tmp_path, capsys, monkeypatch, flags, error, flag
    ):
        from ntpboost.construct import distinguisher_to_rnn

        d = nio.distinguisher_from_json(
            nio.read_json(fixture("distinguisher_n4_k2.json")), B2
        )
        dpath = str(tmp_path / "d_graph.json")
        nio.write_json_atomic(dpath, nio.graph_to_json(distinguisher_to_rnn(d, B2, 2)))

        def no_build(*args):
            raise AssertionError("built before the flags were checked")

        monkeypatch.setattr(cli, "build_boosted_rnn", no_build)
        out = str(tmp_path / "c")
        argv = ["--model", fixture("model_circuit_n4.json"), "--distinguisher", dpath,
                "--k", "2", "--alpha", "0.1", "--offset", "0"]
        assert run_cli("construct", "--out", out, *argv, *flags) == 2
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == error
        assert payload["message"].startswith(flag + " ")
        if error == "FormatError":
            assert payload["message"].endswith(f"(at {dpath}/meta/k)")
        assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "key, size, n", [("alphabet_size", 3, 4), ("n", 2, 6)], ids=["alphabet", "n"]
    )
    def test_construct_refuses_a_distinguisher_of_another_model(
        self, tmp_path, capsys, key, size, n
    ):
        # the model circuit has |Sigma| = 2 and n = 4
        from ntpboost.construct import distinguisher_to_rnn

        alphabet = Alphabet(size)
        d = random_prefix_window_distinguisher(alphabet, n, 2, rng_for(1201))
        dpath = str(tmp_path / "d_graph.json")
        nio.write_json_atomic(
            dpath, nio.graph_to_json(distinguisher_to_rnn(d, alphabet, 2))
        )
        model = fixture("model_circuit_n4.json")
        out = str(tmp_path / "c")
        argv = ["--model", model, "--distinguisher", dpath, "--k", "2", "--alpha", "0.1"]
        assert run_cli("construct", "--out", out, *argv) == 2
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "FormatError"
        assert payload["message"].endswith(
            f"at {model}/meta/{key} (at {dpath}/meta/{key})"
        )
        assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "edited, edit, key, located, other",
        [
            ("model", lambda d: {"alphabet_size": 2, "n": 3, "probs": [0.125] * 8},
             "n", "model", "train"),
            ("model", lambda d: {"alphabet_size": 3, "n": 4, "probs": [1 / 81] * 81},
             "alphabet_size", "model", "train"),
            ("train", lambda d: {"alphabet_size": 2, "n": 3, "probs": [0.125] * 8},
             "n", "model", "train"),
            ("distinguisher", lambda d: {**d, "n": 3, "entries": {}},
             "n", "distinguisher", "train"),
        ],
        ids=["model-n", "model-alphabet", "train-n", "distinguisher-n"],
    )
    def test_boost_names_both_files_that_disagree(
        self, tmp_path, capsys, edited, edit, key, located, other
    ):
        paths = {
            "train": fixture("train_n4.json"),
            "model": fixture("model_n4.json"),
            "distinguisher": fixture("distinguisher_n4_k2.json"),
        }
        obj = load_json(paths[edited])
        paths[edited] = str(tmp_path / f"{edited}.json")
        nio.write_json_atomic(paths[edited], edit(obj))
        out = str(tmp_path / "o")
        argv = [f"--{name}={path}" for name, path in paths.items()]
        assert run_cli("boost", "--out", out, *argv) == 2
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "FormatError"
        assert f"at {paths[other]}/{key} (at {paths[located]}/{key})" in payload["message"]
        assert not os.path.exists(out)

    def test_simulate_rejects_out_of_alphabet_token(self, tmp_path, capsys):
        rc = run_cli(
            "simulate",
            "--out", str(tmp_path),
            "--graph", fixture("model_circuit_n4.json"),
            "--input", "0,5,1",
        )
        assert rc == 2
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "ValidationError"
        assert "alphabet" in payload["message"]
        assert not os.path.exists(os.path.join(str(tmp_path), "simulation.json"))

    def test_simulate_rejects_non_numeric_token(self, tmp_path, capsys):
        rc = run_cli(
            "simulate",
            "--out", str(tmp_path),
            "--graph", fixture("model_circuit_n4.json"),
            "--input", "0,a,1",
        )
        assert rc == 2
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "ValidationError"
        assert payload["message"] == "--input token 2 is not a number: 'a'"
        assert not os.path.exists(os.path.join(str(tmp_path), "simulation.json"))

    def test_simulate_rejects_empty_product(self, tmp_path, capsys):
        graph = load_json(fixture("model_circuit_n4.json"))
        graph["nodes"][1]["expr"] = "(prod )"
        path = str(tmp_path / "g.json")
        nio.write_json_atomic(path, graph)
        rc = run_cli(
            "simulate", "--out", str(tmp_path / "s"), "--graph", path, "--input", "0,1,1"
        )
        assert rc == 2
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "FormatError"
        assert "at least one factor" in payload["message"]

    @pytest.mark.parametrize(
        "edit, where",
        [
            (lambda g: g["nodes"][1].update(init="abc"), "/nodes/1/init"),
            (lambda g: g["nodes"][2].update(init=None), "/nodes/2/init"),
            (lambda g: g.update(rnn_time="two"), "/rnn_time"),
            (lambda g: g.update(rnn_time=2.5), "/rnn_time"),
            (lambda g: g["nodes"][1].update(expr="(const abc)"), "/nodes/1/expr"),
            (lambda g: g.update(nodes=5), "/nodes"),
            (lambda g: g.update(nodes=[5]), "/nodes/0"),
            (lambda g: g["nodes"][0].update(id=7), "/nodes/0/id"),
            (lambda g: g.update(input_ids="in"), "/input_ids"),
            (lambda g: g.update(output_id=["in"]), "/output_id"),
            (lambda g: g.update(meta=5), "/meta"),
            # the meta keys the engine reads are checked by RnnGraph.validate,
            # so the error names the key and is located at the graph
            (lambda g: g["meta"].update(reset_on_advance=["zz"]), ""),
            (lambda g: g["meta"].update(alphabet_size="2"), ""),
            (lambda g: g["meta"].update(depth_bound="3"), ""),
            (lambda g: g["meta"].update(domain_checks=[["in", 5]]), ""),
        ],
        ids=["init-string", "init-null", "rnn_time-string", "rnn_time-fraction",
             "const-abc", "nodes-number", "node-number", "id-number",
             "input_ids-string", "output_id-list", "meta-number", "reset-unknown-node",
             "alphabet_size-string", "depth_bound-string", "domain_checks-values"],
    )
    def test_simulate_rejects_non_numbers(self, tmp_path, capsys, edit, where):
        graph = load_json(fixture("model_circuit_n4.json"))
        edit(graph)
        path = str(tmp_path / "g.json")
        nio.write_json_atomic(path, graph)
        rc = run_cli(
            "simulate", "--out", str(tmp_path / "s"), "--graph", path, "--input", "0,1,1"
        )
        assert rc == 2
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "FormatError"
        assert payload["message"].count(f"(at {path}{where})") == 1
        assert not os.path.exists(str(tmp_path / "s"))

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_simulate_rejects_non_finite_token(self, tmp_path, capsys, token):
        # without meta.alphabet_size the engine takes any float, so the
        # token must be refused before the run: NaN is not JSON
        graph = load_json(fixture("model_circuit_n4.json"))
        del graph["meta"]["alphabet_size"]
        path = str(tmp_path / "g.json")
        nio.write_json_atomic(path, graph)
        out = str(tmp_path / "s")
        rc = run_cli("simulate", "--out", out, "--graph", path, "--input", f"0,{token},1")
        assert rc == 2
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "ValidationError"
        assert payload["message"] == f"--input token 2 is not a number: {token!r}"
        assert not os.path.exists(out)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_artifacts_never_hold_non_finite_numbers(self, tmp_path, value):
        path = str(tmp_path / "a.json")
        with pytest.raises(ValidationError, match="a.json"):
            nio.write_json_atomic(path, {"outputs": {"1": value}})
        assert not os.listdir(str(tmp_path))

    @pytest.mark.parametrize(
        "target, edit, where",
        [
            ("selfboost", lambda c: {k: v for k, v in c.items() if k != "epsilon"},
             "/epsilon"),
            ("selfboost", lambda c: {**c, "k": "x"}, "/k"),
            ("selfboost", lambda c: [c], ""),
            ("selfboost", lambda c: {**c, "family": "x"}, "/family"),
            ("selfboost", lambda c: {**c, "compile": "false"}, "/compile"),
            ("report", lambda c: {"variant": "plain"}, "/rounds"),
            ("simulate", lambda g: {**g, "meta": {**g["meta"], "bits": {"integer": "a"}}},
             "/meta/bits/integer"),
            ("train", lambda d: 5, ""),
            ("train", lambda d: {**d, "probs": "abcd"}, "/probs"),
            ("train", lambda d: {**d, "probs": [str(v) for v in d["probs"]]}, "/probs/0"),
            ("train", lambda d: {**d, "alphabet_size": True}, "/alphabet_size"),
            ("distinguisher", lambda d: None, ""),
            ("distinguisher", lambda d: {**d, "k": "x"}, "/k"),
            ("distinguisher", lambda d: {**d, "k": 1.7}, "/k"),
            ("distinguisher", lambda d: {**d, "entries": []}, "/entries"),
            ("distinguisher", lambda d: {**d, "entries": {"0_1:01": 1}}, "/entries/0_1:01"),
            ("construct", lambda g: {**g, "meta": {**g["meta"], "alphabet_size": "x"}},
             ""),
            ("selfboost", lambda c: {**c, "family": {"kind": 5}}, "/family/kind"),
            ("selfboost", lambda c: {**c, "variant": 5}, "/variant"),
            # right type, outside the domain
            ("selfboost", lambda c: {**c, "variant": "nope"}, "/variant"),
            ("selfboost", lambda c: {**c, "family": {"kind": "nope"}}, "/family/kind"),
            ("selfboost", lambda c: {**c, "k": 0}, "/k"),
            ("selfboost", lambda c: {**c, "k": 9}, "/k"),
            ("selfboost", lambda c: {**c, "epsilon": 2.0}, "/epsilon"),
            ("selfboost", lambda c: {**c, "tau": 0}, "/tau"),
            ("selfboost", lambda c: {**c, "d_bound": 0}, "/d_bound"),
            ("distinguisher", lambda d: {**d, "k": 0}, "/k"),
            ("distinguisher", lambda d: {**d, "k": 5}, "/k"),
            ("distinguisher", lambda d: {**d, "n": 0}, "/n"),
            ("distinguisher", lambda d: {**d, "k": 0, "entries": {}}, "/k"),
            ("distinguisher", lambda d: {**d, "kind": "rnn", "k": 0}, "/k"),
        ],
        ids=["epsilon-missing", "k-string", "config-list", "family-string",
             "compile-string", "trace-no-rounds", "bits-string", "distribution-number",
             "probs-string", "probs-strings", "alphabet_size-bool", "distinguisher-null",
             "distinguisher-k-string", "distinguisher-k-fraction",
             "distinguisher-entries-list", "distinguisher-key-underscore",
             "construct-alphabet_size-string",
             "family-kind-number", "variant-number",
             "variant-unknown", "family-kind-unknown", "k-zero", "k-above-n",
             "epsilon-above-one", "tau-zero", "d_bound-zero", "distinguisher-k-zero",
             "distinguisher-k-above-n", "distinguisher-n-zero",
             "distinguisher-k-zero-no-entries", "distinguisher-rnn-k-zero"],
    )
    def test_bad_input_fails_at_the_boundary(self, tmp_path, capsys, target, edit, where):
        # the fixture each case edits, and the command line that reads it (the
        # edited file's flag comes last, and argparse keeps a flag's last value)
        model, train = fixture("model_n4.json"), fixture("train_n4.json")
        circuit = fixture("model_circuit_n4.json")
        table = fixture("distinguisher_n4_k2.json")
        config = fixture("selfboost_config.json")
        boost = ["boost", "--train", train, "--model", model, "--distinguisher", table]
        source, argv = {
            "selfboost": (config, ["selfboost", "--config"]),
            "report": (config, ["report", "--trace"]),
            "simulate": (circuit, ["simulate", "--input", "0,1,1", "--quantized",
                                   "--graph"]),
            "train": (train, boost + ["--train"]),
            "distinguisher": (table, boost + ["--distinguisher"]),
            "construct": (circuit, ["construct", "--k", "2", "--alpha", "0.1",
                                    "--distinguisher", circuit, "--model"]),
        }[target]
        obj = load_json(source)
        if target == "selfboost":
            obj["distribution_file"] = train
        path = str(tmp_path / "in.json")
        nio.write_json_atomic(path, edit(obj))
        assert run_cli(*argv, path, "--out", str(tmp_path / "o")) == 2
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "FormatError"
        assert payload["message"].count(f"(at {path}{where})") == 1
        assert not os.path.exists(str(tmp_path / "o"))

    def test_verify_runs_clean(self, tmp_path, capsys):
        rc = run_cli("verify", "--out", str(tmp_path))
        assert rc == 0
        matrix = load_json(os.path.join(str(tmp_path), "verify_matrix.json"))
        assert matrix["all_ok"] is True


class TestVerifyRows:
    def test_crashed_check_keeps_its_row_name(self, monkeypatch):
        from ntpboost import verify

        [normal] = verify.run_all([verify.check_round_trip])
        assert normal.ok

        def broken(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(verify, "random_text", broken)
        [crashed] = verify.run_all([verify.check_round_trip])
        assert crashed.name == normal.name == "round_trip"
        assert not crashed.ok and "boom" in crashed.detail
