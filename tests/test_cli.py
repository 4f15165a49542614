"""Command-line surface: config handling, subcommands, reproducibility."""

import argparse
import json
import warnings

import numpy as np
import pytest

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

    def test_provided_scheme_rejected(self, edge_file, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["embed", "--input", edge_file, "--scheme", "provided"])
        assert exc.value.code == 2
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"scheme": "provided"}))
        assert main(["embed", "--input", edge_file, "--slots", "2",
                     "--config", str(config)]) == EXIT_CONFIG

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

    def test_bench_small(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        code = main(["bench", "--sizes", "400,800", "--p", "20", "--q", "10",
                     "--slots", "2", "--out", str(out)])
        assert code == EXIT_OK
        rows = json.loads(out.read_text())
        assert len(rows) == 2
        assert rows[1]["n"] == 800


def _choice_cases():
    """(command, flag, value) for every choice argparse offers on the
    flags that select a mode, a weight scheme, an input kind or a metric."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    wanted = {"embed": ("--mode", "--scheme", "--input-kind", "--metric"),
              "oracle": ("--mode",)}
    cases = []
    for command, flags in wanted.items():
        for action in sub.choices[command]._actions:
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
    elif kind in ("vectors", "coords"):
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
    def test_embed_bit_identical_across_threads(self, edge_file, tmp_path):
        outs = []
        for threads in (1, 8):
            out = tmp_path / f"e{threads}.csv"
            trace = tmp_path / f"t{threads}.jsonl"
            code = main(["embed", "--mode", "stochastic", "--input", edge_file,
                         "--p", "5", "--fraction", "0.8", "--slots", "40",
                         "--seed", "7", "--threads", str(threads),
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
