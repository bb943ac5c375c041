import json
import os

import pytest

from conftest import data_file, write_topology
from fragsim.cli import main
from fragsim.metrics import CSV_HEADER


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSnapshot:
    def test_figure_state_values(self, capsys):
        code, out, _ = run_cli(capsys, "snapshot", data_file("fig_example_state.txt"),
                               "--topology", data_file("fig_example.json"))
        assert code == 0
        vals = dict(line.split() for line in out.strip().splitlines())
        assert float(vals["alpha"]) == pytest.approx(0.6533, abs=1e-4)
        assert float(vals["beta"]) == pytest.approx(0.75, abs=1e-4)
        assert float(vals["vfm"]) == pytest.approx(0.9944, abs=1e-3)
        assert float(vals["vfm_min"]) == pytest.approx(0.486, abs=1e-3)
        assert float(vals["avfm"]) == pytest.approx(0.452156, abs=1e-3)
        assert float(vals["lefm"]) == pytest.approx(0.35, abs=1e-9)
        assert float(vals["utilization"]) == pytest.approx(0.5, abs=1e-9)

    def test_dimension_mismatch_exits_2(self, capsys, tmp_path):
        state = tmp_path / "state.txt"
        state.write_text("0: 0000\n1: 0000\n")
        code, _, err = run_cli(capsys, "snapshot", str(state),
                               "--topology", data_file("fig_example.json"))
        assert code == 2
        assert "error" in err

    def test_missing_topology_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "snapshot", data_file("fig_example_state.txt"))
        assert code == 2
        assert "topology" in err


class TestConfig:
    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"topology": data_file("fig_example.json"),
                                   "sede": 3}))
        code, _, err = run_cli(capsys, "dump-state", "--config", str(cfg),
                               "--arrivals", "0")
        assert code == 2
        assert "sede" in err

    def test_flag_overrides_file(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"topology": data_file("fig_example.json"),
                                   "arrivals": 40, "seed": 5}))
        _, with_file, _ = run_cli(capsys, "dump-state", "--config", str(cfg))
        _, with_flag, _ = run_cli(capsys, "dump-state", "--config", str(cfg),
                                  "--arrivals", "0")
        assert "1" in with_file
        assert "1" not in with_flag.replace("1:", "x")  # only the link ids

    def test_env_seed_applies(self, capsys, monkeypatch):
        topo = data_file("fig_example.json")
        monkeypatch.setenv("FRAGSIM_SEED", "11")
        _, a, _ = run_cli(capsys, "dump-state", "--topology", topo,
                          "--arrivals", "60")
        monkeypatch.setenv("FRAGSIM_SEED", "12")
        _, b, _ = run_cli(capsys, "dump-state", "--topology", topo,
                          "--arrivals", "60")
        assert a != b
        monkeypatch.setenv("FRAGSIM_SEED", "11")
        _, c, _ = run_cli(capsys, "dump-state", "--topology", topo,
                          "--arrivals", "60")
        assert a == c

    def test_flag_seed_beats_env(self, capsys, monkeypatch):
        topo = data_file("fig_example.json")
        _, base, _ = run_cli(capsys, "dump-state", "--topology", topo,
                             "--arrivals", "60", "--seed", "11")
        monkeypatch.setenv("FRAGSIM_SEED", "99")
        _, again, _ = run_cli(capsys, "dump-state", "--topology", topo,
                              "--arrivals", "60", "--seed", "11")
        assert base == again

    @pytest.mark.parametrize("content,named", [
        ('{"replications": 2.5}', "replications"),
        ('{"lambda": "x"}', "lambda"),
        ('{"seed": true}', "seed"),
        ('{"max_demands": [8.5]}', "max_demands"),
        ("5", "JSON object"),
        ("[1, 2]", "JSON object"),
    ])
    def test_bad_file_value_exits_2(self, capsys, tmp_path, content, named):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(content)
        code, _, err = run_cli(capsys, "sweep", "--config", str(cfg),
                               "--topology", data_file("fig_example.json"),
                               "--out", str(tmp_path))
        assert code == 2
        assert named in err
        assert "Traceback" not in err

    def test_file_values_read_like_flags(self, capsys, tmp_path):
        # every option, once in a config file and once as flags
        paths = tmp_path / "paths.json"
        assert run_cli(capsys, "make-paths", "--topology", data_file("fig_example.json"),
                       "--out", str(paths))[0] == 0
        out = tmp_path / "exp"
        values = {"topology": data_file("fig_example.json"), "paths": str(paths),
                  "path_count": 2, "seed": 7, "out": str(out), "replications": 2,
                  "load": 6, "lambda": 2, "holding": 3, "max_demand": 2,
                  "arrivals": 100, "sample_every": 20, "warmup": 50, "measure": 100,
                  "loads": [6], "max_demands": [2, 3], "scan_target": 0.9,
                  "scan_max_arrivals": 1000}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        assert run_cli(capsys, "sweep", "--config", str(cfg))[0] == 0
        meta_file = (out / "metadata.json").read_text()
        csv_file = (out / "sweep.csv").read_text()
        flags = []
        for key, v in values.items():
            text = ",".join(map(str, v)) if isinstance(v, list) else str(v)
            flags += ["--" + key.replace("_", "-"), text]
        assert run_cli(capsys, "sweep", *flags)[0] == 0
        # compared as text, so that 6 and 6.0 differ
        config = json.dumps(json.loads(meta_file)["config"])
        assert config == json.dumps(json.loads((out / "metadata.json").read_text())["config"])
        assert '"loads": [6.0]' in config and '"lambda": 2.0' in config
        assert (out / "sweep.csv").read_text() == csv_file

    def test_null_means_unset_and_scalar_is_one_item_list(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": None, "loads": 5, "holding": None}))
        args = ["--topology", data_file("fig_example.json"), "--max-demands", "2",
                "--warmup", "0", "--measure", "100", "--replications", "2"]
        assert run_cli(capsys, "sweep", "--config", str(cfg), *args,
                       "--out", str(tmp_path / "a"))[0] == 0
        assert run_cli(capsys, "sweep", "--seed", "1", "--loads", "5", *args,
                       "--out", str(tmp_path / "b"))[0] == 0
        meta = json.loads((tmp_path / "a" / "metadata.json").read_text())
        assert meta["config"]["seed"] == 1 and meta["config"]["loads"] == [5.0]
        assert meta["config"]["holding"] is None
        assert (tmp_path / "a" / "sweep.csv").read_text() == \
            (tmp_path / "b" / "sweep.csv").read_text()

    def test_bad_env_seed_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("FRAGSIM_SEED", "x")
        code, _, err = run_cli(capsys, "dump-state", "--topology",
                               data_file("fig_example.json"), "--arrivals", "0")
        assert code == 2
        assert "FRAGSIM_SEED" in err


class TestMakePaths:
    def test_cover_round_trips_through_snapshot(self, capsys, tmp_path):
        topo = data_file("net_a.json")
        out = tmp_path / "paths.json"
        code, _, _ = run_cli(capsys, "make-paths", "--topology", topo,
                             "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["paths"]) == 2
        code, _, _ = run_cli(capsys, "dump-state", "--topology", topo,
                             "--paths", str(out), "--arrivals", "0")
        assert code == 0

    def test_out_from_config_file(self, capsys, tmp_path):
        out = tmp_path / "paths.json"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"topology": data_file("net_a.json"), "out": str(out)}))
        code, printed, _ = run_cli(capsys, "make-paths", "--config", str(cfg))
        assert code == 0 and printed == ""
        assert len(json.loads(out.read_text())["paths"]) == 2

    def test_requested_count_warning(self, capsys, tmp_path):
        topo = write_topology(tmp_path, "pair", 2, [[0, 1]], 8)
        code, out, err = run_cli(capsys, "make-paths", "--topology", topo,
                                 "--path-count", "3")
        assert code == 0
        assert "warning" in err
        assert len(json.loads(out)["paths"]) == 1

    def test_shipped_net_a_paths_file_loads(self, capsys):
        code, _, _ = run_cli(capsys, "dump-state",
                             "--topology", data_file("net_a.json"),
                             "--paths", data_file("net_a_paths.json"),
                             "--arrivals", "0")
        assert code == 0


class TestExperiments:
    def test_transient_outputs(self, capsys, tmp_path):
        out = tmp_path / "exp"
        code, _, _ = run_cli(capsys, "transient",
                             "--topology", data_file("fig_example.json"),
                             "--arrivals", "100", "--replications", "2",
                             "--sample-every", "25", "--max-demand", "3",
                             "--load", "5", "--out", str(out))
        assert code == 0
        rep0 = (out / "transient_rep0.csv").read_text().splitlines()
        assert rep0[0] == CSV_HEADER
        assert len(rep0) == 1 + 4
        assert (out / "transient_rep1.csv").exists()
        summary = (out / "transient_summary.csv").read_text().splitlines()
        assert summary[0] == "arrivals,metric,mean,ci99"
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["experiment"] == "transient"
        assert meta["rng"] == "philox4x64"
        assert len(meta["topology_sha256"]) == 64

    def test_sweep_grid_and_rerun_identical(self, capsys, tmp_path):
        args = ["sweep", "--topology", data_file("fig_example.json"),
                "--loads", "3,6", "--max-demands", "2,3",
                "--warmup", "200", "--measure", "200",
                "--replications", "2", "--seed", "4"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_cli(capsys, *args, "--out", str(out_a))[0] == 0
        assert run_cli(capsys, *args, "--out", str(out_b))[0] == 0
        text = (out_a / "sweep.csv").read_text()
        assert text == (out_b / "sweep.csv").read_text()
        lines = text.splitlines()
        assert lines[0] == "load,max_demand,lambda,holding,metric,mean,ci99"
        points = {tuple(l.split(",")[:2]) for l in lines[1:]}
        assert points == {("3", "2"), ("3", "3"), ("6", "2"), ("6", "3")}

    def test_sweep_lambda_holding_pair(self, capsys, tmp_path):
        out = tmp_path / "exp"
        code, _, _ = run_cli(capsys, "sweep",
                             "--topology", data_file("fig_example.json"),
                             "--loads", "6", "--max-demands", "2",
                             "--lambda", "2.5",
                             "--warmup", "100", "--measure", "100",
                             "--replications", "2", "--out", str(out))
        assert code == 0
        row = (out / "sweep.csv").read_text().splitlines()[1].split(",")
        assert row[2] == "2.5" and row[3] == "2.4"

    def test_sweep_lambda_holding_pair_without_loads(self, capsys, tmp_path):
        args = ["sweep", "--topology", data_file("fig_example.json"),
                "--max-demands", "2", "--lambda", "2", "--holding", "5",
                "--warmup", "100", "--measure", "100", "--replications", "2"]
        code, _, _ = run_cli(capsys, *args, "--out", str(tmp_path))
        assert code == 0
        rows = {tuple(l.split(",")[:4])
                for l in (tmp_path / "sweep.csv").read_text().splitlines()[1:]}
        assert rows == {("10", "2", "2", "5")}
        meta = json.loads((tmp_path / "metadata.json").read_text())
        assert meta["config"]["lambda"] == 2.0 and meta["config"]["holding"] == 5.0
        code, _, err = run_cli(capsys, *args, "--loads", "6", "--out", str(tmp_path))
        assert code == 2
        assert "load (6)" in err

    @pytest.mark.parametrize("flag", ["--holding", "--lambda", "--load"])
    def test_zero_rate_holding_or_load_exits_2(self, capsys, tmp_path, flag):
        code, _, err = run_cli(capsys, "transient",
                               "--topology", data_file("fig_example.json"),
                               "--arrivals", "100", flag, "0", "--out", str(tmp_path))
        assert code == 2
        assert "positive" in err

    def test_scan_reaches_target_on_tiny_net(self, capsys, tmp_path):
        out = tmp_path / "exp"
        code, _, _ = run_cli(capsys, "scan",
                             "--topology", data_file("fig_example.json"),
                             "--load", "4", "--max-demand", "2",
                             "--scan-max-arrivals", "50000", "--out", str(out))
        assert code == 0
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["reached_target"] is True
        lines = (out / "scan.csv").read_text().splitlines()
        assert lines[0] == CSV_HEADER
        utils = [float(l.split(",")[2]) for l in lines[1:]]
        assert max(utils) >= 0.99

    def test_sweep_measure_below_sample_every_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "sweep",
                               "--topology", data_file("fig_example.json"),
                               "--loads", "3", "--max-demands", "2",
                               "--warmup", "100", "--measure", "50",
                               "--replications", "2", "--out", str(tmp_path))
        assert code == 2
        assert "measure (50)" in err and "sample_every (100)" in err

    def test_sweep_without_warmup(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "sweep",
                             "--topology", data_file("fig_example.json"),
                             "--loads", "3", "--max-demands", "2",
                             "--warmup", "0", "--measure", "200",
                             "--replications", "2", "--out", str(tmp_path))
        assert code == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(lines) == 1 + 11

    def test_sweep_honours_sample_every(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "sweep",
                             "--topology", data_file("fig_example.json"),
                             "--loads", "3", "--max-demands", "2",
                             "--warmup", "100", "--measure", "50",
                             "--sample-every", "10",
                             "--replications", "2", "--out", str(tmp_path))
        assert code == 0
        meta = json.loads((tmp_path / "metadata.json").read_text())
        assert meta["config"]["sample_every"] == 10

    @pytest.mark.parametrize("command,want", [("transient", 25), ("sweep", 100),
                                              ("scan", 200)])
    def test_default_sample_every_per_command(self, capsys, tmp_path, command, want):
        # every experiment accepts every flag; each records its effective interval
        code, _, _ = run_cli(capsys, command,
                             "--topology", data_file("fig_example.json"),
                             "--load", "4", "--max-demand", "2", "--arrivals", "100",
                             "--loads", "3", "--max-demands", "2", "--warmup", "0",
                             "--measure", "200", "--replications", "2",
                             "--scan-max-arrivals", "400", "--out", str(tmp_path))
        assert code == 0
        meta = json.loads((tmp_path / "metadata.json").read_text())
        assert meta["config"]["sample_every"] == want
        assert meta["clamp_events"] >= 0
        if command == "scan":
            assert (meta["escalate_every"], meta["escalate_factor"]) == (2000, 1.5)

    def test_sample_every_below_one_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "transient",
                               "--topology", data_file("fig_example.json"),
                               "--arrivals", "100", "--sample-every", "0",
                               "--out", str(tmp_path))
        assert code == 2
        assert "sample_every" in err
