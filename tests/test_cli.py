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
        if command == "scan":
            assert (meta["escalate_every"], meta["escalate_factor"]) == (2000, 1.5)

    def test_sample_every_below_one_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "transient",
                               "--topology", data_file("fig_example.json"),
                               "--arrivals", "100", "--sample-every", "0",
                               "--out", str(tmp_path))
        assert code == 2
        assert "sample_every" in err
