"""Command-line surface: config handling, subcommands, reproducibility."""

import argparse
import json
import warnings

import numpy as np
import pytest

from stochmds import cli
from stochmds.cli import (
    EMBED_DEFAULTS,
    EXIT_CONFIG,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_RUNTIME,
    ConfigError,
    build_parser,
    load_config,
    main,
)


@pytest.fixture
def edge_file(tmp_path):
    rng = np.random.default_rng(0)
    coords = rng.random((15, 2)) * 4
    lines = []
    for i in range(15):
        for j in range(i + 1, 15):
            d = float(np.linalg.norm(coords[i] - coords[j]))
            lines.append(f"{i}\t{j}\t{d!r}")
    path = tmp_path / "edges.tsv"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestLoadConfig:
    def test_defaults_applied(self):
        cfg = load_config(EMBED_DEFAULTS, None, {})
        assert cfg["mu"] == 0.1
        assert cfg["eps_x"] == 1e-8
        assert cfg["eps_w"] == 1e-3
        assert cfg["dim"] == 2

    def test_flag_overrides_file(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"mu": 0.2}))
        cfg = load_config(EMBED_DEFAULTS, str(path), {"mu": 0.05})
        assert cfg["mu"] == 0.05

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"stepsize": 0.2}))
        with pytest.raises(ConfigError, match="stepsize"):
            load_config(EMBED_DEFAULTS, str(path), {})

    def test_range_violation_names_field(self):
        with pytest.raises(ConfigError, match="mu"):
            load_config(EMBED_DEFAULTS, None, {"mu": 1.5})


class TestSubcommands:
    def test_embed_batch_reaches_tiny_stress(self, edge_file, tmp_path, capsys):
        out = tmp_path / "emb.csv"
        trace = tmp_path / "trace.jsonl"
        code = main(["embed", "--mode", "batch", "--input", edge_file,
                     "--tol", "1e-12", "--iters", "2000",
                     "--out", str(out), "--trace", str(trace)])
        assert code == EXIT_OK
        lines = trace.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["config"]["mode"] == "batch"  # full config echoed
        last = json.loads(lines[-1])
        assert last["stress_norm"] < 1e-6
        assert out.exists()

    def test_embed_stochastic_writes_trace(self, edge_file, tmp_path):
        trace = tmp_path / "t.jsonl"
        code = main(["embed", "--mode", "stochastic", "--input", edge_file,
                     "--p", "5", "--fraction", "1.0", "--slots", "50",
                     "--mu", "0.3", "--trace", str(trace), "--seed", "4"])
        assert code == EXIT_OK
        lines = trace.read_text().splitlines()
        assert len(lines) == 52  # header + initial + 50 slots
        rec = json.loads(lines[2])
        assert set(rec) == {"t", "stress", "stress_norm", "mu", "wall_ms",
                            "pairs"}

    def test_embed_mu_range_error(self, edge_file):
        code = main(["embed", "--input", edge_file, "--mu", "1.5"])
        assert code == EXIT_CONFIG

    def test_nonfinite_delta_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "nan.tsv"
        path.write_text("0\t1\t1.0\n1\t2\tnan\n0\t2\t1.5\n")
        out = tmp_path / "emb.csv"
        code = main(["embed", "--mode", "batch", "--input", str(path),
                     "--out", str(out)])
        assert code == EXIT_INPUT
        assert "line 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("node_id", ["99999999999999999999",
                                         "9223372036854775807"])
    def test_oversized_node_id_is_input_error(self, node_id, tmp_path,
                                              capsys):
        """An id beyond int64, or one whose node count N = id + 1 is, is an
        input error that names its line, not an overflow mid-run."""
        path = tmp_path / "big.tsv"
        path.write_text(f"0\t1\t1.0\n0\t{node_id}\t1.0\n")
        out = tmp_path / "emb.csv"
        code = main(["embed", "--mode", "batch", "--input", str(path),
                     "--out", str(out)])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert "line 2" in err and node_id in err
        assert not out.exists()

    @pytest.mark.parametrize("kind, text, message", [
        ("fingerprints", "a\tff\nb\t-f\n", "line 2"),
        ("vectors", "a\t1.0\t2.0\nb\tnan\t1.0\n", "line 2"),
        ("vectors", "a\t1.0\t2.0\nb\t1.0\tinf\n", "line 2"),
        ("matrix", None, "not square"),
    ])
    def test_unrepresentable_input_is_input_error(self, kind, text, message,
                                                  tmp_path, capsys):
        """A signed hex fingerprint, a non-finite feature and a non-square
        matrix are rejected when read, instead of running on wrapped bits,
        a node that never moves, or failing mid-run."""
        path = tmp_path / ("d.npy" if text is None else "d.tsv")
        if text is None:
            np.save(path, np.ones((6, 3)))
        else:
            path.write_text(text)
        out = tmp_path / "emb.csv"
        code = main(["embed", "--input", str(path), "--input-kind", kind,
                     "--p", "2", "--slots", "2", "--out", str(out)])
        assert code == EXIT_INPUT
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_diverged_run_is_execution_failure(self, tmp_path, capsys):
        path = tmp_path / "huge.tsv"
        iu, ju = np.triu_indices(6, k=1)
        path.write_text("".join(f"{i}\t{j}\t1e308\n" for i, j in zip(iu, ju)))
        with np.errstate(all="ignore"):
            code = main(["embed", "--mode", "batch", "--input", str(path),
                         "--iters", "5", "--init-scale", "1"])
        assert code == EXIT_RUNTIME
        assert "status=diverged" in capsys.readouterr().out

    def test_node_count_below_edge_ids_is_input_error(self, tmp_path,
                                                      capsys):
        """--n 3 cannot hold the pair (0, 5); it must not alias (1, 2)."""
        path = tmp_path / "edges.tsv"
        path.write_text("1\t2\t1.0\n0\t5\t9.0\n")
        code = main(["embed", "--input", str(path), "--n", "3", "--p", "3",
                     "--slots", "2"])
        assert code == EXIT_INPUT
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["embed", "oracle"])
    @pytest.mark.parametrize("slots", ["0", "3"])
    def test_cluster_above_node_count_is_input_error(self, command, slots,
                                                     tmp_path, capsys):
        """p = 5 on a 3-node list is an input error before the first slot,
        so a run of no slots fails as a run of three does."""
        path = tmp_path / "e.tsv"
        path.write_text("0\t1\t1.0\n1\t2\t1.0\n0\t2\t1.5\n")
        out = tmp_path / "emb.csv"
        code = main([command, "--input", str(path), "--p", "5",
                     "--slots", slots, "--out", str(out)])
        assert code == EXIT_INPUT
        assert "p=5 exceeds node count 3" in capsys.readouterr().err
        assert not out.exists()

    def test_provided_scheme_rejected(self, edge_file, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["embed", "--input", edge_file, "--scheme", "provided"])
        assert exc.value.code == 2
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"scheme": "provided"}))
        assert main(["embed", "--input", edge_file, "--slots", "2",
                     "--config", str(config)]) == EXIT_CONFIG

    @pytest.mark.parametrize("top", [None, 5, [["p", 3]]],
                             ids=["null", "number", "list"])
    def test_config_file_not_an_object_is_config_error(self, top, edge_file,
                                                       tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps(top))
        assert main(["embed", "--input", edge_file, "--slots", "2",
                     "--config", str(config)]) == EXIT_CONFIG
        assert "must hold a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["oracle", "--samples", "-1"],
        ["oracle", "--samples", "0"],
        ["embed", "--dim", "0"],
        ["embed", "--eval-pairs", "-1"],
        ["embed", "--slots", "-1"],
        ["embed", "--mode", "batch", "--iters", "-1"],
        ["embed", "--init-scale", "nan"],
        ["embed", "--init-scale", "inf"],
        ["embed", "--init-scale", "0"],
        ["embed", "--eps-x", "inf"],
        ["embed", "--noise-sigma", "inf"],
        ["embed", "--mode", "batch", "--tol", "inf"],
        ["embed", "--n", "1"],
    ], ids=lambda argv: "_".join(argv).replace("--", ""))
    def test_out_of_range_count_is_config_error(self, argv, edge_file,
                                                tmp_path, capsys):
        out = tmp_path / "emb.csv"
        code = main(argv + ["--input", edge_file, "--p", "5", "--q", "4",
                            "--out", str(out)])
        assert code == EXIT_CONFIG
        field = argv[-2][2:].replace("-", "_")
        assert f"'{field}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("mean_cluster_size", 0), ("max_members", -1), ("max_members", 0),
        ("min_neighbors", -1), ("rounds", 0), ("anchors", -1),
        ("align_every", -1), ("competitor_every", -2),
        ("sigma_v", float("inf")), ("noise_sigma", float("inf"))])
    def test_bad_protocol_setting_is_config_error(self, key, value,
                                                  tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"n": 20, "rounds": 3, key: value}))
        trace = tmp_path / "t.jsonl"
        code = main(["localize", "--config", str(config),
                     "--trace", str(trace)])
        assert code == EXIT_CONFIG
        assert f"'{key}'" in capsys.readouterr().err
        assert not trace.exists()

    @pytest.mark.parametrize("command, key, value", [
        ("localize", "max_members", 2.5), ("localize", "anchors", 2.5),
        ("localize", "align_every", 2.5),
        ("localize", "competitor_every", 2.5),
        *[(command, key, value) for command in ("embed", "oracle")
          for key, value in (("dim", 2.5), ("p", 2.5), ("n", 20.5),
                             ("slots", 2.5), ("slots", True),
                             ("eps_x", "1e-8"), ("mu", [0.1]), ("mu", None),
                             ("mu", "abc"))],
        ("oracle", "samples", 2.5),
        ("embed", "record_embeddings", "no"), ("embed", "input", 5),
        ("embed", "out", True), ("embed", "trace", ["t.jsonl"]),
        ("localize", "snapshots", 0),
        ("embed", "metric", "manhattan"),  # on an edge list
        ("oracle", "metric", "manhattan"),  # on vectors
        ("embed", "scheme", "bogus"),  # in batch mode
        ("bench", "sizes", [1.5]), ("bench", "sizes", 5),
    ], ids=lambda v: json.dumps(v).strip('"'))
    def test_mistyped_config_value_is_config_error(self, command, key, value,
                                                   tmp_path, capsys):
        """Config values get the types argparse gives the flags: counts are
        integers, reals are numbers, strings are strings and one of the
        allowed values where the flag has choices, and only a key that
        defaults to none may be null."""
        settings = {"localize": {"n": 20, "rounds": 3},
                    "embed": {"p": 5, "slots": 2},
                    "oracle": {"p": 5, "slots": 2, "samples": 2},
                    "bench": {"p": 4, "q": 2, "slots": 1}}[command]
        config = tmp_path / "c.json"
        config.write_text(json.dumps({**settings, key: value}))
        trace = tmp_path / "t.jsonl"
        argv = [command, "--config", str(config)]
        if key != "trace":
            argv += ["--out" if command == "bench" else "--trace", str(trace)]
        if command in ("embed", "oracle") and key != "input":
            kind = "vectors" if key == "metric" and command == "oracle" \
                else "edges"
            argv += ["--input", _tiny_input(kind, tmp_path),
                     "--input-kind", kind]
        if key == "scheme":
            argv += ["--mode", "batch"]
        assert main(argv) == EXIT_CONFIG
        assert f"'{key}'" in capsys.readouterr().err
        assert not trace.exists()

    @pytest.mark.parametrize("command, mode", [("embed", "batch"),
                                               ("oracle", "closed_form")])
    def test_all_pairs_modes_share_the_size_limit(self, command, mode,
                                                  tmp_path, monkeypatch,
                                                  capsys):
        """Batch mode and the closed-form oracle hold all pairs at once;
        above one shared node limit both refuse to start."""
        monkeypatch.setattr(cli, "MATERIALIZE_MAX_NODES", 5)
        out = tmp_path / "emb.csv"
        code = main([command, "--mode", mode, "--input-kind", "vectors",
                     "--input", _tiny_input("vectors", tmp_path),
                     "--p", "2", "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "N=6 > 5" in capsys.readouterr().err
        assert not out.exists()

    def test_localize_nonfinite_result_is_execution_failure(self, tmp_path,
                                                            capsys):
        """Like a diverged embedding: the outputs are written, then the run
        exits 5."""
        trace = tmp_path / "t.jsonl"
        snaps = tmp_path / "s.csv"
        with np.errstate(all="ignore"):
            code = main(["localize", "--n", "20", "--rounds", "3",
                         "--sigma-v", "1e200", "--trace", str(trace),
                         "--snapshots", str(snaps)])
        assert code == EXIT_RUNTIME
        captured = capsys.readouterr()
        assert "final_e_loc=inf" in captured.out
        assert "diverged" in captured.err
        assert len(trace.read_text().splitlines()) == 4  # header + 3 rounds
        assert snaps.exists()

    def test_missing_input_is_config_error(self):
        assert main(["embed", "--mode", "batch"]) == EXIT_CONFIG

    def test_unknown_subcommand_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_localize_trace(self, tmp_path):
        trace = tmp_path / "loc.jsonl"
        snaps = tmp_path / "snaps.csv"
        code = main(["localize", "--n", "30", "--rounds", "25",
                     "--seed", "1", "--trace", str(trace),
                     "--snapshots", str(snaps)])
        assert code == EXIT_OK
        lines = trace.read_text().splitlines()
        rec = json.loads(lines[-1])
        assert set(rec) >= {"t", "e_loc", "clusters", "messages"}
        snap_lines = snaps.read_text().splitlines()
        assert snap_lines[0] == "t,node,est_x,est_y,true_x,true_y"
        assert len(snap_lines) == 1 + 25 * 30  # one row per round per node

    def test_oracle_closed_form(self, edge_file, tmp_path):
        trace = tmp_path / "o.jsonl"
        code = main(["oracle", "--mode", "closed_form", "--input", edge_file,
                     "--p", "5", "--mu", "0.3", "--slots", "40",
                     "--trace", str(trace)])
        assert code == EXIT_OK
        stresses = [json.loads(l)["stress"]
                    for l in trace.read_text().splitlines()[1:]]
        assert all(b <= a + 1e-9 * (1 + a)
                   for a, b in zip(stresses, stresses[1:]))

    @pytest.mark.parametrize("p, message", [
        ("5", "cluster size p=5 out of range for N=3"),
        ("2", "p=2 must divide N=3"),
    ])
    def test_closed_form_oracle_checks_p_before_first_slot(self, p, message,
                                                          tmp_path, capsys):
        """The closed-form oracle checks its cluster size before the first
        slot, so a run of no slots fails as a longer run does."""
        path = tmp_path / "e.tsv"
        path.write_text("0\t1\t1.0\n1\t2\t1.0\n0\t2\t1.5\n")
        out = tmp_path / "emb.csv"
        code = main(["oracle", "--mode", "closed_form", "--input", str(path),
                     "--p", p, "--slots", "0", "--out", str(out)])
        assert code == EXIT_INPUT
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_oracle_sparse_edge_list_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "sparse.tsv"
        path.write_text("0\t1\t1.0\n1\t2\t1.0\n2\t3\t1.0\n3\t0\t1.0\n")
        out = tmp_path / "emb.csv"
        code = main(["oracle", "--mode", "closed_form", "--input", str(path),
                     "--p", "2", "--out", str(out)])
        assert code == EXIT_INPUT
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_oracle_diverged_run_is_execution_failure(self, tmp_path, capsys):
        path = tmp_path / "huge.tsv"
        iu, ju = np.triu_indices(6, k=1)
        path.write_text("".join(f"{i}\t{j}\t1e308\n" for i, j in zip(iu, ju)))
        config = tmp_path / "oracle.json"
        config.write_text(json.dumps({"init_scale": 1.0}))
        with np.errstate(all="ignore"):
            code = main(["oracle", "--mode", "closed_form", "--input",
                         str(path), "--p", "3", "--slots", "5",
                         "--config", str(config)])
        assert code == EXIT_RUNTIME
        assert "status=diverged" in capsys.readouterr().out

    def test_stats_window(self, edge_file, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        main(["embed", "--mode", "stochastic", "--input", edge_file,
              "--p", "5", "--fraction", "1.0", "--slots", "30",
              "--trace", str(trace), "--seed", "9"])
        capsys.readouterr()
        code = main(["stats", "--trace-file", str(trace),
                     "--window", "21:30"])
        assert code == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["eta_min"] <= out["eta_mean"] <= out["eta_max"]

    @pytest.mark.parametrize("kind", ["localize", "header_only"])
    def test_stats_without_stress_records_is_input_error(self, kind,
                                                         tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        if kind == "localize":
            main(["localize", "--n", "12", "--rounds", "3",
                  "--trace", str(trace)])
        else:
            trace.write_text(json.dumps({"config": {}, "seed": 0}) + "\n")
        capsys.readouterr()
        code = main(["stats", "--trace-file", str(trace)])
        assert code == EXIT_INPUT
        assert "no stress records" in capsys.readouterr().err

    @pytest.mark.parametrize("line, reason", [
        ("5", "not a JSON object"),
        ('{"t": "1", "stress": 0.5}', "t and stress must be numbers"),
        ('{"t": 1, "stress": [0.5]}', "t and stress must be numbers"),
        ('{"t": 1, "stress": true}', "t and stress must be numbers"),
    ], ids=["number", "string-t", "list-stress", "bool-stress"])
    def test_stats_malformed_trace_line_is_input_error(self, line, reason,
                                                       tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        good = json.dumps({"t": 0, "stress": 1.0})
        trace.write_text(f"{good}\n{line}\n")
        code = main(["stats", "--trace-file", str(trace)])
        assert code == EXIT_INPUT
        assert f"line 2: {reason}" in capsys.readouterr().err

    def test_stats_hovering(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((6, 4, 2))
        b = a + 0.0
        np.save(tmp_path / "a.npy", a)
        np.save(tmp_path / "b.npy", b)
        code = main(["stats", "--hovering", str(tmp_path / "a.npy"),
                     str(tmp_path / "b.npy"), "--horizon", "5"])
        assert code == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["hovering_deviation"] == 0.0

    @pytest.mark.parametrize("window", ["5", "a:b", "1:2:3", ""])
    def test_stats_malformed_window_is_usage_error(self, window, tmp_path,
                                                   capsys):
        trace = tmp_path / "t.jsonl"
        trace.write_text("".join(json.dumps({"t": t, "stress": 1.0}) + "\n"
                                 for t in range(4)))
        with pytest.raises(SystemExit) as exc:
            main(["stats", "--trace-file", str(trace), "--window", window])
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize("horizon", ["0", "-1", "x"])
    def test_stats_horizon_below_one_is_usage_error(self, horizon, tmp_path,
                                                    capsys):
        a = np.zeros((4, 3, 2))
        np.save(tmp_path / "a.npy", a)
        with pytest.raises(SystemExit) as exc:
            main(["stats", "--hovering", str(tmp_path / "a.npy"),
                  str(tmp_path / "a.npy"), "--horizon", horizon])
        assert exc.value.code == 2
        assert "--horizon" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["localize", "--rounds", "2", "--n", "1"],
        ["oracle", "--mode", "closed_form", "--p", "1"],
        ["bench", "--sizes", "40", "--slots", "1", "--p", "1"],
        ["bench", "--sizes", "40", "--slots", "1", "--q", "0"],
        ["embed", "--p", "1"],
        ["embed", "--q", "0"],
    ], ids=lambda argv: "_".join(argv).replace("--", ""))
    def test_count_below_its_range_is_config_error(self, argv, tmp_path,
                                                   capsys):
        """Counts outside ``test_out_of_range_count_is_config_error``'s
        reach: other commands, and the p and q it sets itself."""
        key = argv[-2][2:]
        out = tmp_path / "out"
        if argv[0] in ("embed", "oracle"):
            argv = argv + ["--input", _tiny_input("edges", tmp_path)]
        code = main(argv + ["--out" if argv[0] != "localize" else "--trace",
                            str(out)])
        assert code == EXIT_CONFIG
        assert f"'{key}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        *[[command, "--threads", "1"]
          for command in ("embed", "oracle", "localize", "bench")],
        ["embed", "--mode", "spe", "--p", "2"],
        ["embed", "--input-kind", "coords"],
    ], ids=lambda argv: "_".join(argv).replace("--", ""))
    def test_removed_flag_is_usage_error(self, argv, tmp_path, capsys):
        """``--threads`` did nothing, SPE is ``--mode stochastic --p 2`` and
        ``coords`` is ``vectors`` with the euclidean metric."""
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out" if argv[0] != "localize" else "--trace",
                         str(out)])
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, key, value", [
        *[(command, "threads", 1)
          for command in ("embed", "oracle", "localize", "bench")],
        ("localize", "eps_w", 1e-3),
    ])
    def test_removed_config_key_is_config_error(self, command, key, value,
                                                tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({key: value}))
        out = tmp_path / "out"
        code = main([command, "--config", str(config),
                     "--out" if command != "localize" else "--trace",
                     str(out)])
        assert code == EXIT_CONFIG
        assert f"'{key}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, code", [("embed", EXIT_CONFIG),
                                               ("oracle", EXIT_OK)])
    def test_mu_zero_is_a_config_error_only_for_a_schedule(
            self, command, code, tmp_path, capsys):
        """A schedule's steps lie in (0, 1], so ``embed --mu 0`` is refused
        as a config value; the oracle takes a step of 0."""
        out = tmp_path / "out"
        argv = {"embed": ["--slots", "2"],
                "oracle": ["--slots", "2", "--samples", "2"]}[command]
        argv += ["--input", _tiny_input("edges", tmp_path), "--p", "3"]
        assert main([command, "--mu", "0", *argv, "--out", str(out)]) == code
        if code == EXIT_CONFIG:
            assert "'mu'" in capsys.readouterr().err
        assert out.exists() == (code == EXIT_OK)

    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_localize_mu_zero_is_config_error(self, where, tmp_path, capsys):
        """A protocol step of 0 moves no estimate, so ``localize`` refuses
        it, from a flag or from a config file."""
        out = tmp_path / "t.jsonl"
        argv = ["localize", "--n", "12", "--rounds", "2", "--trace", str(out)]
        if where == "flag":
            argv += ["--mu", "0"]
        else:
            config = tmp_path / "cfg.json"
            config.write_text(json.dumps({"mu": 0}))
            argv += ["--config", str(config)]
        assert main(argv) == EXIT_CONFIG
        assert "'mu'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["embed", "oracle"])
    @pytest.mark.parametrize("where", ["flags", "config", "both"])
    def test_q_with_fraction_is_config_error(self, command, where, tmp_path,
                                             capsys):
        """A sampler takes a pair count or a pair fraction, not both."""
        settings = {"q": 2, "fraction": 1.0}
        file_keys = {"flags": (), "config": ("q", "fraction"),
                     "both": ("q",)}[where]
        config = tmp_path / "c.json"
        config.write_text(json.dumps({k: settings[k] for k in file_keys}))
        out = tmp_path / "emb.csv"
        argv = [command, "--config", str(config), "--input",
                _tiny_input("edges", tmp_path), "--p", "3", "--slots", "2",
                "--out", str(out)]
        for key in set(settings) - set(file_keys):
            argv += [f"--{key}", str(settings[key])]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "'q'" in err and "'fraction'" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["embed", "oracle"])
    def test_embeddings_out_alone_records_the_sequence(self, command,
                                                       edge_file, tmp_path,
                                                       capsys):
        """Naming the output is what records the sequence that
        ``stats --hovering`` reads; two runs with one seed hover at 0."""
        paths = [tmp_path / "a.npy", tmp_path / "b.npy"]
        extra = ["--samples", "2"] if command == "oracle" else []
        for path in paths:
            code = main([command, "--input", edge_file, "--p", "5",
                         "--slots", "4", "--seed", "2",
                         "--embeddings-out", str(path), *extra])
            assert code == EXIT_OK
            assert np.load(path).shape == (5, 15, 2)
        capsys.readouterr()
        code = main(["stats", "--hovering", *map(str, paths)])
        assert code == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out == {"hovering_deviation": 0.0, "horizon": 4}

    def test_record_embeddings_flag_is_gone(self, edge_file):
        with pytest.raises(SystemExit) as exc:
            main(["embed", "--input", edge_file, "--record-embeddings"])
        assert exc.value.code == 2

    def test_batch_mode_rejects_embeddings_out(self, edge_file, tmp_path,
                                               capsys):
        """Batch mode records no embedding sequence, so naming a file for
        one fails instead of writing nothing."""
        path = tmp_path / "e.npy"
        code = main(["embed", "--mode", "batch", "--input", edge_file,
                     "--embeddings-out", str(path)])
        assert code == EXIT_CONFIG
        assert "'embeddings_out'" in capsys.readouterr().err
        assert not path.exists()

    def test_bench_small(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        code = main(["bench", "--sizes", "400,800", "--p", "20", "--q", "10",
                     "--slots", "2", "--out", str(out)])
        assert code == EXIT_OK
        rows = json.loads(out.read_text())
        assert len(rows) == 2
        assert rows[1]["n"] == 800

    def test_bench_malformed_sizes_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--sizes", "400,8x0"])
        assert exc.value.code == 2


def _subcommands():
    return next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def test_flags_set_keys_of_the_config_table():
    """Every flag of a subcommand sets a key of that command's defaults, and
    every defaults key has an entry in the config table."""
    defaults = {"embed": cli.EMBED_DEFAULTS, "oracle": cli.ORACLE_DEFAULTS,
                "localize": cli.LOCALIZE_DEFAULTS,
                "bench": cli.BENCH_DEFAULTS}
    for command, keys in defaults.items():
        dests = {action.dest for action in _subcommands()[command]._actions}
        assert dests - {"help", "config"} <= set(keys), command
        assert set(keys) <= set(cli.CONFIG_KEYS), command


def test_every_count_has_a_range():
    """An integer key other than the seed is a count and gets bounds, so a
    new count cannot be added without them."""
    for key, (kind, limits) in cli.CONFIG_KEYS.items():
        if kind is int and key != "seed":
            assert limits is not None and len(limits) == 2, key
            assert all(isinstance(v, (int, float)) for v in limits), key


def _choice_cases():
    """(command, flag, value) for every choice argparse offers on the
    flags that select a mode, a weight scheme, an input kind or a metric."""
    wanted = {"embed": ("--mode", "--scheme", "--input-kind", "--metric"),
              "oracle": ("--mode",)}
    cases = []
    for command, flags in wanted.items():
        for action in _subcommands()[command]._actions:
            flag = next((f for f in action.option_strings if f in flags),
                        None)
            if flag is not None:
                cases += [(command, flag, value) for value in action.choices]
    return cases


def _tiny_input(kind, tmp_path):
    """Six planar points as an input file of the given kind."""
    coords = np.random.default_rng(3).random((6, 2)) + 0.5
    iu, ju = np.triu_indices(6, k=1)
    dist = np.linalg.norm(coords[:, None] - coords[None], axis=-1)
    coords = coords.tolist()
    path = tmp_path / f"input.{kind}"
    if kind == "edges":
        path.write_text("".join(f"{i}\t{j}\t{float(dist[i, j])!r}\n"
                                for i, j in zip(iu, ju)))
    elif kind == "matrix":
        path = tmp_path / "input.npy"
        np.save(path, dist)
    elif kind == "vectors":
        path.write_text("".join(f"n{i}\t{x!r}\t{y!r}\n"
                                for i, (x, y) in enumerate(coords)))
    else:
        path.write_text("".join(f"n{i}\t{h}\n" for i, h in
                                enumerate(["0f", "f0", "3c", "c3", "55",
                                           "aa"])))
    return str(path)


class TestChoicesSmoke:
    @pytest.mark.parametrize("command, flag, value", _choice_cases(),
                             ids=lambda v: str(v).lstrip("-"))
    def test_every_choice_runs(self, command, flag, value, tmp_path, capsys):
        kind = {"--input-kind": value, "--metric": "vectors"}.get(flag,
                                                                  "edges")
        argv = [command, flag, value, "--input", _tiny_input(kind, tmp_path),
                "--input-kind", kind, "--p", "2", "--slots", "2",
                "--seed", "1"]
        argv += (["--iters", "5"] if command == "embed"
                 else ["--samples", "2"])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(argv) == EXIT_OK, capsys.readouterr().err


def _normalize(lines):
    out = []
    for line in lines:
        rec = json.loads(line)
        rec.pop("wall_ms", None)  # timing is measurement, not output
        out.append(json.dumps(rec, sort_keys=True))
    return out


class TestDeterminism:
    def test_embed_bit_identical_across_runs(self, edge_file, tmp_path):
        outs = []
        for run in range(2):
            out = tmp_path / f"e{run}.csv"
            trace = tmp_path / f"t{run}.jsonl"
            code = main(["embed", "--mode", "stochastic", "--input", edge_file,
                         "--p", "5", "--fraction", "0.8", "--slots", "40",
                         "--seed", "7",
                         "--out", str(out), "--trace", str(trace)])
            assert code == EXIT_OK
            outs.append((out.read_bytes(),
                         _normalize(trace.read_text().splitlines()[1:])))
        assert outs[0][0] == outs[1][0]  # embedding CSV byte-for-byte
        assert outs[0][1] == outs[1][1]

    def test_localize_reproducible(self, tmp_path):
        trace = tmp_path / "l.jsonl"  # identical command line both times
        texts = []
        for run in range(2):
            main(["localize", "--n", "25", "--rounds", "20", "--seed", "3",
                  "--trace", str(trace)])
            texts.append(trace.read_text())
        assert texts[0] == texts[1]


class TestTraceHeader:
    """The trace header records how many pairs each record's stress is
    taken on."""

    @staticmethod
    def _header(path):
        return json.loads(path.read_text().splitlines()[0])

    def test_sparse_edge_list_evaluates_its_usable_edges(self, tmp_path):
        rng = np.random.default_rng(5)
        lines = [f"{i}\t{(i + 1) % 20}\t{rng.random() + 0.5!r}"
                 for i in range(20)]
        lines += ["0\t10\t2.0", "10\t0\t2.5",   # one pair, listed twice
                  "3\t9\t-1.0\t0", "4\t12\t0.0\t0"]  # unusable: weight 0
        path = tmp_path / "ring.tsv"
        path.write_text("\n".join(lines) + "\n")
        trace = tmp_path / "t.jsonl"
        with pytest.warns(UserWarning, match="1 duplicate"):
            code = main(["embed", "--mode", "stochastic", "--input",
                         str(path), "--p", "4", "--slots", "3",
                         "--trace", str(trace)])
        assert code == EXIT_OK
        assert self._header(trace)["evaluated_pairs"] == 21
        with pytest.warns(UserWarning, match="1 duplicate"):
            code = main(["embed", "--mode", "batch", "--input", str(path),
                         "--iters", "3", "--trace", str(trace)])
        assert code == EXIT_OK
        assert self._header(trace)["evaluated_pairs"] == 23  # the batch

    def test_matrix_above_the_cap_evaluates_the_cap(self, tmp_path):
        coords = np.random.default_rng(6).random((30, 2))
        path = tmp_path / "d.npy"
        np.save(path, np.linalg.norm(coords[:, None] - coords[None], axis=-1))
        trace = tmp_path / "t.jsonl"
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"eval_pairs": 100}))
        for command, mode in (("embed", "stochastic"), ("oracle", "empirical")):
            code = main([command, "--mode", mode, "--input", str(path),
                         "--input-kind", "matrix", "--p", "5", "--slots", "2",
                         "--config", str(config), "--trace", str(trace)]
                        + (["--samples", "2"] if command == "oracle" else []))
            assert code == EXIT_OK
            assert self._header(trace)["evaluated_pairs"] == 100, command

    def test_streamed_run_records_null(self, tmp_path):
        from stochmds import MuSchedule, ObservationBatch, run_stochastic

        batches = [ObservationBatch([0, 1], [1, 2], [1.0, 1.0], [1.0, 1.0])
                   for _ in range(3)]
        run = run_stochastic(batches, np.eye(3, 2), MuSchedule.constant(0.1),
                             None, 3)
        trace = tmp_path / "t.jsonl"
        run.write_jsonl(trace)
        assert self._header(trace)["evaluated_pairs"] is None
