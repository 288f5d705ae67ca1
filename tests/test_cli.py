"""Command-line interface: subcommands, exit codes, deterministic outputs."""

import json
import multiprocessing
import struct

import pytest

from fedaudit.cli import main
from fedaudit.config import load_config
from fedaudit.simulator import Simulation

RUN_CONFIG = {
    "seed": 5,
    "rounds": 4,
    "eta": 0.1,
    "local_epochs": 3,
    "model": {"input_dim": 3, "hidden_dims": [], "num_classes": 3},
    "data": {"source": "synthetic", "separation": 2.0, "samples_per_client": 20,
             "holdout_samples": 50},
    "roster": {"fair": 4, "plain": 1},
    "aggregator": {"kind": "fedavg"},
    "defense": {"kind": "pass", "beta": 1.75},
    "privacy": {"noise_variance": 0.0, "prune_rate": 0.0},
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestRun:
    def test_missing_config_exits_1(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "missing.json"),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert "not found" in capsys.readouterr().err

    def test_invalid_config_exits_1(self, tmp_path, capsys):
        path = write_config(tmp_path, {**RUN_CONFIG,
                                       "defense": {"kind": "pass", "beta": 0.5}})
        assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 1
        assert "defense.beta" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [("rounds", "3"), ("seed", -1),
                                              ("local_epochs", True), ("eta", "0.1")])
    def test_bad_top_level_scalar_exits_1(self, tmp_path, capsys, field, value):
        path = write_config(tmp_path, {**RUN_CONFIG, field: value})
        assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 1
        assert f"{field}: must be" in capsys.readouterr().err

    @pytest.mark.parametrize("section, fields, path", [
        ("roster", {"fair": "2"}, "roster.fair"),
        ("defense", {"alpha": "x"}, "defense.alpha"),
        ("data", {"samples_per_client": "20"}, "data.samples_per_client"),
        ("aggregator", {"kind": [0.1]}, "aggregator.kind"),
        ("privacy", {"noise_variance": "x"}, "privacy.noise_variance"),
        ("model", {"hidden_dims": 4}, "model.hidden_dims"),
        ("defense", {"beta": float("nan")}, "defense.beta"),
        ("privacy", {"noise_variance": float("inf")}, "privacy.noise_variance"),
        ("data", {"separation": float("inf")}, "data.separation"),
    ])
    def test_bad_nested_field_exits_1(self, tmp_path, capsys, section, fields, path):
        payload = {**RUN_CONFIG, section: {**RUN_CONFIG[section], **fields}}
        config = write_config(tmp_path, payload)
        assert main(["run", "--config", config, "--out", str(tmp_path / "out")]) == 1
        assert f"{path}: must be" in capsys.readouterr().err

    def test_overflowing_number_exits_1(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(RUN_CONFIG).replace('"separation": 2.0',
                                                       '"separation": 1e400'))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert "data.separation: must be a finite number" in capsys.readouterr().err

    def test_pool_without_a_sample_per_class_exits_1(self, tmp_path, capsys):
        payload = {**RUN_CONFIG, "roster": {"fair": 1},
                   "data": {**RUN_CONFIG["data"], "samples_per_client": 1,
                            "holdout_samples": 1}}
        path = write_config(tmp_path, payload)
        assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 1
        assert "data.samples_per_client/holdout_samples: " in capsys.readouterr().err

    @pytest.mark.parametrize("section, key", [
        ("data", "num_classes"), ("data", "input_dim"), ("privacy", "prune_mode"),
        ("roster", "disguise_variance"), ("roster", "afr_init_variance"),
        ("roster", "fr_adam_lr"), ("roster", "fr_adam_decay"),
        ("roster", "sfr_pretrain_epochs"), ("defense", "threshold_mode"),
        ("aggregator", "trim_fraction"), ("defense", "rffl_threshold")])
    def test_removed_keys_are_unknown_keys_exit_1(self, tmp_path, capsys, section, key):
        # synthetic data takes the model's shape, so `data` has no dims,
        # pruning has one transform, so `privacy` has no mode, each free
        # rider's strength is its class's default, so `roster` is counts only,
        # and the cutoffs and the trim are fixed, so `defense` and
        # `aggregator` have no knobs for them
        payload = {**RUN_CONFIG, section: {**RUN_CONFIG[section], key: 3}}
        path = write_config(tmp_path, payload)
        assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 1
        assert f"{section}: unknown keys ['{key}']" in capsys.readouterr().err

    def test_model_section_without_input_dim_exits_1(self, tmp_path, capsys):
        path = write_config(tmp_path, {**RUN_CONFIG, "model": {"num_classes": 3}})
        assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "model.input_dim: required" in err and "__init__" not in err

    def test_non_object_section_exits_1(self, tmp_path, capsys):
        path = write_config(tmp_path, {**RUN_CONFIG, "roster": 5})
        assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 1
        assert "roster: expected a JSON object" in capsys.readouterr().err

    def test_local_batch_size_from_config_file(self, tmp_path):
        path = write_config(tmp_path, {**RUN_CONFIG, "local_batch_size": 5})
        config, _ = load_config(path)
        assert config.local_batch_size == 5
        out = tmp_path / "out"
        assert main(["run", "--config", path, "--out", str(out)]) == 0
        assert (out / "rounds.csv").exists()

    def test_run_twice_identical_outputs(self, tmp_path):
        path = write_config(tmp_path, RUN_CONFIG)
        out1, out2 = tmp_path / "out1", tmp_path / "out2"
        assert main(["run", "--config", path, "--out", str(out1)]) == 0
        assert main(["run", "--config", path, "--out", str(out2)]) == 0
        assert (out1 / "rounds.csv").read_bytes() == (out2 / "rounds.csv").read_bytes()
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()

    def test_csv_columns(self, tmp_path):
        path = write_config(tmp_path, RUN_CONFIG)
        out = tmp_path / "out"
        main(["run", "--config", path, "--out", str(out)])
        header = (out / "rounds.csv").read_text().splitlines()[0]
        assert header == "round,accuracy,client_id,contribution,eliminated,comm_scalars"

    def test_json_format(self, tmp_path):
        path = write_config(tmp_path, RUN_CONFIG)
        out = tmp_path / "out"
        assert main(["run", "--config", path, "--out", str(out),
                     "--format", "json"]) == 0
        payload = json.loads((out / "result.json").read_text())
        assert payload["rounds_completed"] == 4
        assert len(payload["round_logs"]) == 4

    def test_seed_override(self, tmp_path):
        path = write_config(tmp_path, RUN_CONFIG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", path, "--out", str(out1), "--seed", "9"])
        main(["run", "--config", path, "--out", str(out2)])
        assert (out1 / "rounds.csv").read_text() != (out2 / "rounds.csv").read_text()

    @pytest.mark.parametrize("overrides, round_, eta", [
        ({"eta": 1e308}, 0, "1e+308"), ({"data": {"separation": 1e308}}, 1, "0.1")],
        ids=["eta", "separation"])
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_overflowing_run_exits_1_naming_the_round(self, tmp_path, capsys,
                                                      overrides, round_, eta):
        # the trained parameters overflow; no output may look like a result
        path = write_config(tmp_path, {"rounds": 3, "roster": {"fair": 3, "plain": 1},
                                       **overrides})
        out = tmp_path / "out"
        assert main(["run", "--config", path, "--out", str(out)]) == 1
        assert (f"config error: round {round_}: the global parameters are no longer "
                f"finite (eta {eta})") in capsys.readouterr().err
        assert not (out / "rounds.csv").exists()
        assert multiprocessing.active_children() == []


class TestUsageErrors:
    def test_unknown_subcommand_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag_exits_1(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", "x.json", "--bogus"])
        assert exc.value.code == 1
        assert "usage" in capsys.readouterr().err

    def test_missing_subcommand_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1


class TestSweep:
    def test_beta_sweep_three_rows(self, tmp_path):
        payload = {**RUN_CONFIG, "rounds": 2,
                   "sweep": {"beta": [1.0, 1.75, 3.0]}}
        path = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["sweep", "--config", path, "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 4  # header + three rows
        assert lines[0].startswith("beta,")

    @pytest.mark.parametrize("sweep, key", [({"beta": ["x"]}, "beta"),
                                            ({"beta": 2}, "beta"),
                                            ({"fr_count": [1.5]}, "fr_count"),
                                            ({"beta": [float("nan")]}, "beta"),
                                            ({"beta": []}, "beta")])
    def test_bad_sweep_values_exit_1(self, tmp_path, capsys, sweep, key):
        path = write_config(tmp_path, {**RUN_CONFIG, "rounds": 2, "sweep": sweep})
        assert main(["sweep", "--config", path, "--out", str(tmp_path / "o")]) == 1
        assert f"sweep.{key}: must be a list of" in capsys.readouterr().err

    @pytest.mark.parametrize("sweep, path", [
        ({"beta": [1.75, 1.5, 0.5]}, "defense.beta"),
        ({"gamma": [0.9, 1.5]}, "privacy.prune_rate"),
        ({"noise_variance": [0.0, -1.0]}, "privacy.noise_variance"),
    ], ids=["beta", "gamma", "noise_variance"])
    def test_bad_late_value_exits_1_before_any_run(self, tmp_path, capsys,
                                                   monkeypatch, sweep, path):
        runs = []
        original_run = Simulation.run
        monkeypatch.setattr(Simulation, "run",
                            lambda self: runs.append(1) or original_run(self))
        config = write_config(tmp_path, {**RUN_CONFIG, "rounds": 2, "sweep": sweep})
        out = tmp_path / "o"
        assert main(["sweep", "--config", config, "--out", str(out)]) == 1
        assert f"{path}: must" in capsys.readouterr().err
        assert runs == []
        assert not (out / "sweep.csv").exists()

    def test_sweep_without_section_exits_1(self, tmp_path, capsys):
        path = write_config(tmp_path, RUN_CONFIG)
        assert main(["sweep", "--config", path, "--out", str(tmp_path / "o")]) == 1
        assert "sweep" in capsys.readouterr().err


class TestDlg:
    def test_dlg_grid_outputs(self, tmp_path):
        payload = {**RUN_CONFIG,
                   "dlg": {"noise_variances": [0.0, 0.1], "prune_rates": [0.0],
                           "instances": 2, "iterations": 40, "input_dim": 4,
                           "num_classes": 2}}
        path = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert main(["dlg", "--config", path, "--out", str(out)]) == 0
        lines = (out / "dlg_grid.csv").read_text().strip().splitlines()
        assert lines[0].startswith("source,noise_variance,prune_rate,median_mse")
        sources = {line.split(",")[0] for line in lines[1:]}
        # simulated rows plus the labeled published reference rows
        assert {"simulated", "published_reference",
                "published_soteria_reference"} <= sources

    def test_dlg_bad_section_exits_1(self, tmp_path, capsys):
        payload = {**RUN_CONFIG, "dlg": {"instances": 0}}
        path = write_config(tmp_path, payload)
        assert main(["dlg", "--config", path, "--out", str(tmp_path / "o")]) == 1
        assert "dlg" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key", [
        ({"noise_variances": [0.0, float("inf")]}, "noise_variances"),
        ({"prune_rates": [float("nan")]}, "prune_rates"),
    ])
    def test_dlg_non_finite_exits_1(self, tmp_path, capsys, section, key):
        path = write_config(tmp_path, {**RUN_CONFIG, "dlg": section})
        assert main(["dlg", "--config", path, "--out", str(tmp_path / "o")]) == 1
        assert f"dlg.{key}: must be a list of finite numbers" in capsys.readouterr().err

    def test_dlg_zero_iterations_exits_1(self, tmp_path, capsys):
        path = write_config(tmp_path, {**RUN_CONFIG, "dlg": {"iterations": 0}})
        assert main(["dlg", "--config", path, "--out", str(tmp_path / "o")]) == 1
        assert "dlg.iterations: must be an integer >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key", [
        ({"num_classes": 1}, "num_classes"),
        ({"input_dim": 0}, "input_dim"),
        ({"hidden_dims": [0]}, "hidden_dims"),
        ({"noise_variances": [-1.0]}, "noise_variances"),
        ({"prune_rates": [1.5]}, "prune_rates"),
        ({"prune_rates": [-0.5]}, "prune_rates"),
        ({"noise_variances": [0.0, 0.0], "prune_rates": [0.0], "instances": 2,
          "iterations": 5}, "noise_variances"),
        ({"prune_rates": [0.9, 0.0, 0.9]}, "prune_rates"),
        ({"noise_variances": []}, "noise_variances"),
        ({"prune_rates": []}, "prune_rates"),
    ])
    def test_dlg_out_of_range_exits_1(self, tmp_path, capsys, section, key):
        path = write_config(tmp_path, {**RUN_CONFIG, "dlg": section})
        assert main(["dlg", "--config", path, "--out", str(tmp_path / "o")]) == 1
        assert f"config error: dlg.{key}: " in capsys.readouterr().err

    @pytest.mark.parametrize("section, argv", [({"seed": -1}, []),
                                               ({"seed": "1"}, []),
                                               ({}, ["--seed", "-3"])])
    def test_dlg_bad_seed_exits_1(self, tmp_path, capsys, section, argv):
        path = write_config(tmp_path, {**RUN_CONFIG, "dlg": section})
        assert main(["dlg", "--config", path, "--out", str(tmp_path / "o"), *argv]) == 1
        assert "dlg.seed: must be an integer" in capsys.readouterr().err


class TestIdxBoundary:
    def idx_config(self, tmp_path, images, labels):
        data = {**RUN_CONFIG["data"], "source": "idx",
                "images_path": str(images), "labels_path": str(labels)}
        return write_config(tmp_path, {**RUN_CONFIG, "data": data})

    def test_missing_idx_file_exits_1(self, tmp_path, capsys):
        path = self.idx_config(tmp_path, tmp_path / "no-images", tmp_path / "no-labels")
        assert main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 1
        assert "config error: data.images_path/labels_path: " in capsys.readouterr().err

    def test_bad_magic_exits_1(self, tmp_path, capsys):
        images, labels = tmp_path / "images", tmp_path / "labels"
        images.write_bytes(struct.pack(">IIII", 0x00000803, 1, 1, 3) + bytes(3))
        labels.write_bytes(struct.pack(">II", 0x00000802, 1) + bytes(1))
        path = self.idx_config(tmp_path, images, labels)
        assert main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "config error: data.images_path/labels_path: " in err
        assert "magic" in err

    def test_labels_beyond_model_classes_exit_1(self, tmp_path, capsys):
        images, labels = tmp_path / "images", tmp_path / "labels"
        images.write_bytes(struct.pack(">IIII", 0x00000803, 200, 1, 3) + bytes(600))
        labels.write_bytes(struct.pack(">II", 0x00000801, 200) + bytes(range(5)) * 40)
        path = self.idx_config(tmp_path, images, labels)
        assert main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 1
        assert "config error: model.num_classes: 3 < IDX label classes 5" in capsys.readouterr().err


class TestPaths:
    """Unusable --config and --out paths are configuration errors (exit 1)
    that name the path, for every subcommand; a bad --out is caught before
    any experiment starts."""

    COMMANDS = ("run", "sweep", "dlg")
    ENTRY_POINTS = ("run_experiment", "sweep_experiment", "run_dlg_experiment")

    @pytest.mark.parametrize("command", COMMANDS)
    def test_directory_config_exits_1(self, tmp_path, capsys, command):
        config = tmp_path / "config.json"
        config.mkdir()
        assert main([command, "--config", str(config), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and str(config) in err

    @pytest.mark.parametrize("command", COMMANDS)
    def test_non_utf8_config_exits_1(self, tmp_path, capsys, command):
        config = tmp_path / "config.json"
        config.write_bytes(b'{"seed": "\xff\xfe"}')
        assert main([command, "--config", str(config), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and str(config) in err

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("out", ["file", "file/sub"])
    def test_unusable_out_exits_1_before_any_run(self, tmp_path, capsys, monkeypatch,
                                                 command, out):
        for name in self.ENTRY_POINTS:
            monkeypatch.setattr(f"fedaudit.cli.{name}", _never_called)
        (tmp_path / "file").write_text("")
        payload = {**RUN_CONFIG, "sweep": {"beta": [1.75]},
                   "dlg": {"instances": 1, "iterations": 5}}
        config = write_config(tmp_path, payload)
        out_dir = tmp_path / out
        assert main([command, "--config", config, "--out", str(out_dir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: --out {out_dir}: ")


def _never_called(*args, **kwargs):
    raise AssertionError("an experiment ran although --out is unusable")
