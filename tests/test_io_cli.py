"""File formats, loaders, CLI subcommands, reproducibility."""

import json
import os
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest

from ntpboost import cli
from ntpboost import io as nio
from ntpboost.cli import main
from ntpboost.construct import lm_to_rnn
from ntpboost.dist import Alphabet, text_to_lm
from ntpboost.distinguishers import advantage
from ntpboost.errors import FormatError, NtpboostError
from ntpboost.families import one_prefix_table_family
from ntpboost.instances import (
    random_prefix_window_distinguisher,
    random_text,
    rng_for,
)
from ntpboost.rnn.engine import run
from ntpboost.selfboost import make_schedule

B2 = Alphabet(2)
FIXTURES = os.path.join(os.path.dirname(nio.__file__), "fixtures")


def fixture(name):
    return os.path.join(FIXTURES, name)


class TestDistributionFormat:
    def test_round_trip(self, tmp_path):
        rng = rng_for(901)
        t = random_text(B2, 3, rng)
        path = tmp_path / "d.json"
        nio.write_json_atomic(str(path), nio.distribution_to_json(t))
        back = nio.load_and_validate(str(path), "distribution")
        assert np.max(np.abs(back.probs - t.probs)) < 1e-15

    def test_valid_uniform_fixture_loads(self):
        t = nio.load_and_validate(fixture("uniform_n2.json"), "distribution")
        assert t.n == 2 and abs(t.probs.sum() - 1) < 1e-12

    def test_bad_normalization_names_tolerance(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"alphabet_size": 2, "n": 1, "probs": [0.5, 0.48]}))
        with pytest.raises(FormatError, match="1e-09"):
            nio.load_and_validate(str(path), "distribution")

    def test_negative_prob_rejected_with_location(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"alphabet_size": 2, "n": 1, "probs": [1.5, -0.5]})
        )
        with pytest.raises(FormatError, match="probs/1"):
            nio.load_and_validate(str(path), "distribution")

    def test_nan_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"alphabet_size": 2, "n": 1, "probs": [NaN, 1.0]}')
        with pytest.raises(FormatError):
            nio.load_and_validate(str(path), "distribution")


class TestDistinguisherFormat:
    def test_table_round_trip_preserves_semantics(self, tmp_path):
        rng = rng_for(907)
        d = random_prefix_window_distinguisher(B2, 4, 2, rng)
        payload = nio.distinguisher_to_json(d, B2)
        path = tmp_path / "d.json"
        nio.write_json_atomic(str(path), payload)
        back = nio.load_and_validate(str(path), "distinguisher", B2)
        for i in range(1, 5):
            kc = min(2, 4 - i + 1)
            for joint in product(range(2), repeat=i - 1 + kc):
                assert back.value(i, joint[: i - 1], joint[i - 1 :]) == d.value(
                    i, joint[: i - 1], joint[i - 1 :]
                )

    def test_table_round_trip_ternary(self, tmp_path):
        b3 = Alphabet(3)
        rng = rng_for(909)
        d = random_prefix_window_distinguisher(b3, 3, 2, rng)
        path = tmp_path / "d.json"
        nio.write_json_atomic(str(path), nio.distinguisher_to_json(d, b3))
        back = nio.load_and_validate(str(path), "distinguisher", b3)
        for a, b in zip(back.tables(3), d.tables(3)):
            assert np.array_equal(a, b)

    def test_missing_alphabet_rejected(self):
        with pytest.raises(FormatError, match="alphabet"):
            nio.load_and_validate(fixture("distinguisher_n4_k2.json"), "distinguisher")

    def test_bad_key_length_rejected(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(
            json.dumps(
                {"kind": "table", "k": 1, "n": 2, "entries": {"1:011": 1}}
            )
        )
        with pytest.raises(FormatError, match="key length"):
            nio.load_and_validate(str(path), "distinguisher", B2)

    def test_rnn_kind_evaluates_through_engine(self, tmp_path):
        rng = rng_for(911)
        d = random_prefix_window_distinguisher(B2, 3, 1, rng)
        from ntpboost.construct import distinguisher_to_rnn

        g = distinguisher_to_rnn(d, B2, 2)
        payload = {"kind": "rnn", "k": 1, "n": 3, "graph": nio.graph_to_json(g)}
        path = tmp_path / "d.json"
        nio.write_json_atomic(str(path), payload)
        back = nio.load_and_validate(str(path), "distinguisher", B2)
        p = random_text(B2, 3, rng)
        q = random_text(B2, 3, rng)
        assert abs(advantage(back, p, q) - advantage(d, p, q)) < 1e-12


class TestGraphFormat:
    def test_round_trip_trace_identical(self, tmp_path):
        rng = rng_for(919)
        lm = text_to_lm(random_text(B2, 3, rng))
        g = lm_to_rnn(lm, 2)
        path = tmp_path / "g.json"
        nio.write_json_atomic(str(path), nio.graph_to_json(g))
        back = nio.load_and_validate(str(path), "graph")
        stream = np.array([1, 0, 1])
        a = run(g, stream)
        b = run(back, stream)
        assert np.array_equal(a.values, b.values)

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
            nio.load_and_validate(str(path), "graph")


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
        result = json.load(open(os.path.join(out, "boost_result.json")))
        boosted = nio.load_and_validate(
            os.path.join(out, "boosted_distribution.json"), "distribution"
        )
        p = nio.load_and_validate(fixture("train_n4.json"), "distribution")
        q = nio.load_and_validate(fixture("model_n4.json"), "distribution")
        from ntpboost.dist import kl

        assert abs(result["kl_after"] - kl(p, boosted)) < 1e-9
        assert (
            result["kl_after"]
            <= result["kl_before"] - result["guaranteed_drop"] + 1e-9
        )

    def test_construct_then_simulate_matches_boost(self, tmp_path):
        # cross-command consistency: compile circuits for the fixture pair,
        # then the simulated boosted circuit agrees with the analytic boost
        from ntpboost.boosting import boost_text
        from ntpboost.construct import distinguisher_to_rnn

        out = str(tmp_path / "c")
        p = nio.load_and_validate(fixture("train_n4.json"), "distribution")
        q = nio.load_and_validate(fixture("model_n4.json"), "distribution")
        d = nio.load_and_validate(fixture("distinguisher_n4_k2.json"), "distinguisher", B2)
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
        report = json.load(open(os.path.join(out, "construction_report.json")))
        assert report["built_size"] == report["formula_size"]

        sim_out = str(tmp_path / "s")
        rc = run_cli(
            "simulate",
            "--out", sim_out,
            "--graph", os.path.join(out, "boosted_graph.json"),
            "--input", "0,1,1,0",
        )
        assert rc == 0
        sim = json.load(open(os.path.join(sim_out, "simulation.json")))
        doc = (0, 1, 1, 0)
        for i in range(1, 5):
            want = res.lm_boosted.prob(doc[i - 1], doc[: i - 1])
            assert abs(sim["outputs"][str(i)] - want) < 1e-9

    def test_selfboost_and_report(self, tmp_path):
        cfg = json.load(open(fixture("selfboost_config.json")))
        cfg["distribution_file"] = fixture("train_n4.json")
        cfg_path = str(tmp_path / "cfg.json")
        nio.write_json_atomic(cfg_path, cfg)
        out = str(tmp_path / "sb")
        rc = run_cli("selfboost", "--out", out, "--config", cfg_path)
        assert rc == 0
        trace = json.load(open(os.path.join(out, "selfboost_trace.json")))
        assert trace["termination"] == "loss_plateau"
        csv_text = open(os.path.join(out, "rounds.csv")).read()
        assert csv_text.splitlines()[0] == "round,N_i,H_i,T_i,L_i,KL,alpha"
        rep_out = str(tmp_path / "rep")
        rc = run_cli(
            "report", "--out", rep_out,
            "--trace", os.path.join(out, "selfboost_trace.json"),
        )
        assert rc == 0
        assert (
            open(os.path.join(rep_out, "rounds.csv")).read() == csv_text
        )

    def test_selfboost_with_compile_flag(self, tmp_path):
        cfg = json.load(open(fixture("selfboost_config.json")))
        cfg["distribution_file"] = fixture("train_n4.json")
        cfg["compile"] = True
        cfg_path = str(tmp_path / "cfg.json")
        nio.write_json_atomic(cfg_path, cfg)
        out = str(tmp_path / "sbc")
        rc = run_cli("selfboost", "--out", out, "--config", cfg_path)
        assert rc == 0
        trace = json.load(open(os.path.join(out, "selfboost_trace.json")))
        boosted_rounds = [r for r in trace["rounds"] if r["boosts"] > 0]
        assert all(r["compiled"] for r in boosted_rounds)

    def test_selfboost_writes_budget_times_of_any_size(self, tmp_path):
        # at eps=0.05, k=2 the starting index is in the thousands, and the
        # time budget (8k|Sigma|^k)^(i-1) tau has tens of thousands of digits
        cfg = json.load(open(fixture("selfboost_config.json")))
        cfg.update(distribution_file=fixture("train_n4.json"), epsilon=0.05, k=2)
        cfg_path = str(tmp_path / "cfg.json")
        nio.write_json_atomic(cfg_path, cfg)
        out = str(tmp_path / "sb")
        assert run_cli("selfboost", "--out", out, "--config", cfg_path) == 0
        trace = json.load(open(os.path.join(out, "selfboost_trace.json")))
        rows = open(os.path.join(out, "rounds.csv")).read().splitlines()[1:]
        schedule = make_schedule("plain", 7, 2, 3, 0.05, B2)
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
            out = trace.node_index[graph.output_id]
            trace.values[graph.rnn_time - 1, out, 9] += 0.5
            trace.values[2 * graph.rnn_time - 1, out, 5] += 0.5
            return trace

        hook = cli.make_compile_hook(p, family)
        step = SimpleNamespace(member_index=3)
        assert hook(None, None, [step]) is True
        monkeypatch.setattr(cli, "engine_run", skewed_run)
        with pytest.raises(NtpboostError, match=r"at prefix \(0,\), token 1$"):
            hook(None, None, [step])

    def test_byte_identical_reruns(self, tmp_path):
        cfg = json.load(open(fixture("selfboost_config.json")))
        cfg["distribution_file"] = fixture("train_n4.json")
        cfg_path = str(tmp_path / "cfg.json")
        nio.write_json_atomic(cfg_path, cfg)
        outs = []
        for tag in ("a", "b"):
            out = str(tmp_path / tag)
            assert run_cli("selfboost", "--out", out, "--config", cfg_path) == 0
            outs.append(
                tuple(
                    open(os.path.join(out, name), "rb").read()
                    for name in ("selfboost_trace.json", "rounds.csv", "final_model.json")
                )
            )
        assert outs[0] == outs[1]

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
        graph = json.load(open(fixture("model_circuit_n4.json")))
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
        graph = json.load(open(fixture("model_circuit_n4.json")))
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
        ],
        ids=["init-string", "init-null", "rnn_time-string", "rnn_time-fraction",
             "const-abc"],
    )
    def test_simulate_rejects_non_numbers(self, tmp_path, capsys, edit, where):
        graph = json.load(open(fixture("model_circuit_n4.json")))
        edit(graph)
        path = str(tmp_path / "g.json")
        nio.write_json_atomic(path, graph)
        rc = run_cli(
            "simulate", "--out", str(tmp_path / "s"), "--graph", path, "--input", "0,1,1"
        )
        assert rc == 2
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "FormatError"
        assert f"(at {path}{where})" in payload["message"]

    def test_verify_runs_clean(self, tmp_path, capsys):
        rc = run_cli("verify", "--out", str(tmp_path))
        assert rc == 0
        matrix = json.load(open(os.path.join(str(tmp_path), "verify_matrix.json")))
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
