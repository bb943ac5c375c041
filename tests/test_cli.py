import hashlib
import json
import os
import subprocess
import sys

import pytest

import fragsim
from conftest import data_file, write_topology
from fragsim.cli import COMMANDS, main
from fragsim.metrics import CSV_HEADER
from fragsim.topology import build_beta_paths, load_beta_paths, load_topology
from test_golden_outputs import RUNS


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

    def test_unreadable_topology_file_exits_3(self, capsys, tmp_path):
        absent = str(tmp_path / "absent.json")
        code, _, err = run_cli(capsys, "dump-state", "--topology", absent,
                               "--arrivals", "0")
        assert code == 3
        assert "i/o error" in err and "absent.json" in err

    def test_unreadable_paths_file_exits_3(self, capsys, tmp_path):
        absent = str(tmp_path / "absent.json")
        code, _, err = run_cli(capsys, "dump-state", "--topology",
                               data_file("fig_example.json"), "--paths", absent,
                               "--arrivals", "0")
        assert code == 3
        assert "i/o error" in err and "absent.json" in err

    @pytest.mark.parametrize("flag", ["--topology", "--paths"])
    def test_malformed_input_file_exits_2(self, capsys, tmp_path, flag):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        argv = ["dump-state", "--topology", data_file("fig_example.json"),
                "--arrivals", "0", flag, str(bad)]
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert "cannot parse" in err

    @pytest.mark.parametrize("nodes, slices, fibers, named", [
        (1, 8, [], "no fibers"),
        (2, 1, [[0, 1]], "slice_count"),
    ])
    def test_unusable_topology_exits_2(self, capsys, tmp_path, nodes, slices,
                                       fibers, named):
        topo = write_topology(tmp_path, "bad", nodes, fibers, slices)
        code, _, err = run_cli(capsys, "transient", "--topology", topo,
                               "--arrivals", "10", "--replications", "2",
                               "--out", str(tmp_path / "out"))
        assert code == 2
        assert named in err

    @pytest.mark.parametrize("content,named", [
        ("[1, 2]", "JSON object"),
        ('{"nodes": 2.7, "slice_count": 8, "fibers": [[0, 1]]}', "nodes"),
        ('{"nodes": true, "slice_count": 8, "fibers": [[0, 1]]}', "nodes"),
        ('{"nodes": 2, "slice_count": 8.9, "fibers": [[0, 1]]}', "slice_count"),
        ('{"nodes": 2, "slice_count": 8, "fibers": [[0, 1.9]]}', "fibers[0]"),
    ])
    def test_non_integer_topology_file_exits_2(self, capsys, tmp_path, content, named):
        topo = tmp_path / "bad.json"
        topo.write_text(content)
        code, out, err = run_cli(capsys, "dump-state", "--topology", str(topo),
                                 "--arrivals", "0")
        assert code == 2 and out == ""
        assert named in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("slices", [2, 3])
    def test_one_hop_trails_on_a_narrow_grid(self, capsys, tmp_path, slices):
        # two one-hop trails: with 3 slices the bounds used to give
        # vfm_min = vfm_max and every report divided by zero
        topo = write_topology(tmp_path, "narrow", 3, [[0, 1], [1, 2]], slices)
        state = tmp_path / "state.txt"
        rows = ["01", "00", "10", "11"] if slices == 2 else ["010", "000", "101", "011"]
        state.write_text("".join(f"{lid}: {bits}\n" for lid, bits in enumerate(rows)))
        code, out, err = run_cli(capsys, "snapshot", str(state), "--topology", topo,
                                 "--path-count", "2")
        assert code == 0, err
        vals = dict(line.split() for line in out.strip().splitlines())
        assert 0.0 <= float(vals["nvfm"]) <= 1.0
        code, _, err = run_cli(capsys, "transient", "--topology", topo, "--path-count", "2",
                               "--arrivals", "50", "--sample-every", "5",
                               "--replications", "2", "--max-demand", "2", "--load", "2",
                               "--out", str(tmp_path / "out"))
        assert code == 0, err

    def test_huge_node_count_exits_2_at_once(self, tmp_path):
        # a connected graph has at most one node more than it has fibers; the
        # limit on the address space keeps a per-node allocation from running
        topo = write_topology(tmp_path, "huge", 10**9, [[0, 1]], 8)
        proc = subprocess.run([sys.executable, "-c", HUGE_NODES, topo], env=env_with_src(),
                              capture_output=True, text=True, timeout=60)
        assert proc.stdout.split()[:1] == ["2"], proc.stderr
        assert float(proc.stdout.split()[1]) < 0.5
        assert "not connected" in proc.stderr and "Traceback" not in proc.stderr

    def test_negative_dump_state_arrivals_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "dump-state", "--topology",
                                 data_file("fig_example.json"), "--arrivals", "-5")
        assert code == 2 and out == ""
        assert "arrivals" in err


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

    @pytest.mark.filterwarnings("error")
    def test_seeds_span_64_bits(self, capsys):
        # seeds at and above 2**63 used to alias each other through a float key
        dumps = set()
        for seed in [0, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 1]:
            code, out, err = run_cli(capsys, "dump-state", "--topology",
                                     data_file("net_a.json"), "--arrivals", "60",
                                     "--seed", str(seed))
            assert code == 0 and err == ""
            dumps.add(out)
        assert len(dumps) == 5

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("seed", ["-1", str(2**64), str(2**65 + 3)])
    def test_seed_outside_64_bits_exits_2(self, capsys, seed):
        code, out, err = run_cli(capsys, "dump-state", "--topology",
                                 data_file("fig_example.json"), "--arrivals", "10",
                                 "--seed", seed)
        assert code == 2 and out == ""
        assert "seed must be in [0, 2**64)" in err

    def test_bad_env_seed_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("FRAGSIM_SEED", "x")
        code, _, err = run_cli(capsys, "dump-state", "--topology",
                               data_file("fig_example.json"), "--arrivals", "0")
        assert code == 2
        assert "FRAGSIM_SEED" in err


class TestParser:
    def test_help_names_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert set(COMMANDS) == {"snapshot", "transient", "sweep", "scan", "dump-state",
                                 "make-paths"}
        for name, (_, help_, _) in COMMANDS.items():
            assert f"  {name:<12}{help_}" in out
        assert "--scan-max-arrivals" in out

    @pytest.mark.parametrize("argv, message", [
        (["snapshot"], "required: state"),
        (["transient", "state.txt"], "unrecognized arguments: state.txt"),
        (["dump-state", "state.txt"], "unrecognized arguments: state.txt"),
        (["nonsense"], "invalid choice"),
        ([], "required: command"),
    ])
    def test_bad_positionals_exit_2(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--topology", data_file("fig_example.json")])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_options_before_the_command(self, capsys, tmp_path):
        argv, digests = RUNS["transient"]
        assert argv[0] == "transient"
        assert main(argv[1:] + ["--out", str(tmp_path), "transient"]) == 0
        capsys.readouterr()
        for fname, want in digests.items():
            assert hashlib.sha256((tmp_path / fname).read_bytes()).hexdigest() == want

    def test_state_file_after_the_options(self, capsys):
        code, out, _ = run_cli(capsys, "snapshot", "--topology", data_file("fig_example.json"),
                               data_file("fig_example_state.txt"))
        assert code == 0 and out.startswith("utilization 0.500000")


class TestOutputFiles:
    def test_mode_follows_umask(self, capsys, tmp_path):
        old = os.umask(0o022)
        try:
            (tmp_path / "plain").write_text("")
            assert run_cli(capsys, "transient", "--topology", data_file("fig_example.json"),
                           "--load", "3", "--max-demand", "2", "--arrivals", "50",
                           "--replications", "2", "--out", str(tmp_path))[0] == 0
            assert run_cli(capsys, "make-paths", "--topology", data_file("fig_example.json"),
                           "--out", str(tmp_path / "paths.json"))[0] == 0
        finally:
            os.umask(old)
        want = (tmp_path / "plain").stat().st_mode
        written = sorted(p.name for p in tmp_path.iterdir())
        assert written == ["metadata.json", "paths.json", "plain", "transient_rep0.csv",
                           "transient_rep1.csv", "transient_summary.csv"]
        for name in written:
            assert (tmp_path / name).stat().st_mode == want, name

    def test_failed_write_leaves_no_temporary_file(self, capsys, tmp_path):
        (tmp_path / "cover").mkdir()
        code, out, err = run_cli(capsys, "make-paths", "--topology",
                                 data_file("fig_example.json"),
                                 "--out", str(tmp_path / "cover"))
        assert code == 3 and out == ""
        assert "i/o error" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cover"]
        assert list((tmp_path / "cover").iterdir()) == []


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

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_path_count_below_one_exits_2(self, capsys, count):
        code, out, err = run_cli(capsys, "make-paths",
                                 "--topology", data_file("net_a.json"),
                                 "--path-count", count)
        assert code == 2
        assert "path_count" in err and out == ""

    @pytest.mark.parametrize("name", ["parallel", "fig_example.json", "net_a.json",
                                      "nsfnet.json", "german.json"])
    def test_written_cover_loads_as_built(self, capsys, tmp_path, name):
        # "parallel" has two fibers between each adjacent node pair; a hop
        # takes the lowest-id fiber not yet used, on both sides of the file
        topo = (write_topology(tmp_path, "parallel", 3, [[0, 1], [0, 1], [1, 2], [1, 2]], 8)
                if name == "parallel" else data_file(name))
        out = tmp_path / "paths.json"
        assert run_cli(capsys, "make-paths", "--topology", topo, "--out", str(out))[0] == 0
        t = load_topology(topo)
        built = build_beta_paths(t)
        assert load_beta_paths(str(out), t).paths == built.paths
        if name == "parallel":
            assert built.node_paths == [[0, 1, 2, 1, 0]]
            assert built.paths == [[0, 4, 7, 3]]
        code, _, _ = run_cli(capsys, "dump-state", "--topology", topo,
                             "--paths", str(out), "--arrivals", "0")
        assert code == 0

    def test_fiber_covered_twice_exits_2(self, capsys, tmp_path):
        doc = json.loads(open(data_file("net_a_paths.json")).read())
        doc["paths"].append([3, 0])
        paths = tmp_path / "paths.json"
        paths.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "dump-state", "--topology", data_file("net_a.json"),
                               "--paths", str(paths), "--arrivals", "0")
        assert code == 2
        assert "repeated" in err

    @pytest.mark.parametrize("node", ["4.9", "true", '"3"'])
    def test_non_integer_path_node_exits_2(self, capsys, tmp_path, node):
        paths = tmp_path / "paths.json"
        paths.write_text('{"paths": [[3, 0, 1, 2, 0, 4, 3, 2, 5, 1, 6, 5], [6, %s]]}'
                         % node)
        code, _, err = run_cli(capsys, "dump-state", "--topology", data_file("net_a.json"),
                               "--paths", str(paths), "--arrivals", "0")
        assert code == 2
        assert "paths[1][1] must be an integer" in err

    @pytest.mark.parametrize("content", ['{"paths": 5}', "[1, 2]", '{"paths": [1, 2]}',
                                         '{"trails": [[0, 1]]}'])
    def test_path_file_of_wrong_shape_exits_2(self, capsys, tmp_path, content):
        paths = tmp_path / "paths.json"
        paths.write_text(content)
        code, _, err = run_cli(capsys, "dump-state", "--topology", data_file("net_a.json"),
                               "--paths", str(paths), "--arrivals", "0")
        assert code == 2
        assert 'must hold a JSON object {"paths": [[node, node, ...], ...]}' in err
        assert "Traceback" not in err

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

    def test_one_replication_has_no_interval(self, capsys, tmp_path):
        # one run has no spread to estimate: every half-width reads nan, not 0
        out = tmp_path / "exp"
        code, _, err = run_cli(capsys, "transient",
                               "--topology", data_file("fig_example.json"),
                               "--arrivals", "100", "--replications", "1",
                               "--sample-every", "25", "--max-demand", "3",
                               "--load", "5", "--out", str(out))
        assert code == 0, err
        header, *rows = (out / "transient_summary.csv").read_text().splitlines()
        assert header == "arrivals,metric,mean,ci99" and rows
        assert all(row.split(",")[3] == "nan" for row in rows)
        assert all(row.split(",")[2] != "nan" for row in rows)

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

    @pytest.mark.parametrize("command,flag", [("transient", "--max-demand"),
                                              ("sweep", "--max-demands")])
    def test_max_demand_above_2_pow_32_exits_2(self, capsys, tmp_path, command, flag):
        code, _, err = run_cli(capsys, command,
                               "--topology", data_file("fig_example.json"),
                               "--arrivals", "100", flag, str(2**32 + 1),
                               "--out", str(tmp_path))
        assert code == 2
        assert "max_demand" in err

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

    @pytest.mark.parametrize("flag,value", [("--scan-target", "1.5"),
                                            ("--scan-target", "0"),
                                            ("--scan-target", "-0.5"),
                                            ("--scan-max-arrivals", "-5"),
                                            ("--scan-max-arrivals", "0")])
    def test_scan_limit_out_of_range_exits_2(self, capsys, tmp_path, flag, value):
        code, _, err = run_cli(capsys, "scan", "--topology", data_file("fig_example.json"),
                               flag, value, "--out", str(tmp_path))
        assert code == 2
        assert flag[2:].replace("-", "_") in err
        assert not (tmp_path / "scan.csv").exists()

    def test_sweep_measure_below_sample_every_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "sweep",
                               "--topology", data_file("fig_example.json"),
                               "--loads", "3", "--max-demands", "2",
                               "--warmup", "100", "--measure", "50",
                               "--replications", "2", "--out", str(tmp_path))
        assert code == 2
        assert "measure (50)" in err and "sample_every (100)" in err

    def test_transient_arrivals_below_sample_every_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "transient",
                               "--topology", data_file("fig_example.json"),
                               "--load", "3", "--max-demand", "2",
                               "--arrivals", "10", "--sample-every", "25",
                               "--replications", "2", "--out", str(tmp_path))
        assert code == 2
        assert "arrivals (10)" in err and "sample_every (25)" in err
        assert not (tmp_path / "transient_summary.csv").exists()

    @pytest.mark.parametrize("command,flags", [
        ("transient", ["--load", "nan"]),
        ("transient", ["--load", "inf"]),
        ("transient", ["--lambda", "nan", "--holding", "1"]),
        ("transient", ["--load", "4", "--holding", "inf"]),
        ("transient", ["--load", "1e-320"]),
        ("sweep", ["--loads", "3,nan"]),
        ("sweep", ["--loads=-inf"]),
        ("sweep", ["--lambda", "inf", "--holding", "1"]),
        ("sweep", ["--lambda", "2", "--holding", "nan"]),
    ])
    def test_non_finite_traffic_exits_2(self, capsys, tmp_path, command, flags):
        code, _, err = run_cli(capsys, command,
                               "--topology", data_file("fig_example.json"),
                               "--max-demand", "2", "--max-demands", "2",
                               "--arrivals", "50", "--warmup", "0", "--measure", "100",
                               *flags, "--out", str(tmp_path))
        assert code == 2
        assert "finite and positive" in err
        assert list(tmp_path.iterdir()) == []

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


def env_with_src():
    return dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(fragsim.__file__)))


# Prints dump-state's exit code and its run time on a topology file, with the
# address space capped at 1 GiB once the imports are done.
HUGE_NODES = """
import resource, sys, time
from fragsim.cli import main
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
t = time.perf_counter()
code = main(["dump-state", "--topology", sys.argv[1], "--arrivals", "0"])
print(code, time.perf_counter() - t)
"""

# Run with `python -O`, where assert statements are stripped; prints whether
# each invariant check still fires.
UNDER_O = """
import sys
from fragsim.cli import main
from fragsim.engine import Simulation
from fragsim.spectrum import SliceRange, SpectrumFault, SpectrumState
from fragsim.topology import Topology, build_beta_paths
from fragsim.traffic import Demand, DemandProfile

def faults(call):
    try:
        call()
    except SpectrumFault:
        return True
    return False

st = SpectrumState(1, 8)
st.allocate([0], SliceRange(0, 4).mask)
print(__debug__)
print(faults(lambda: st.allocate([0], SliceRange(3, 2).mask)))
print(faults(lambda: st.release([0], SliceRange(4, 2).mask)))
# the mask of a connection that has departed, released once more
topo = Topology("pair", 2, [(0, 1)], 8)
sim = Simulation(topo, DemandProfile(1.0, 1.0, 1, 0), build_beta_paths(topo))
route, mask = sim.step_arrival(Demand(0, 0, 1, 3, 0.0, 1.0))
sim.step_arrival(Demand(1, 0, 1, 9, 2.0, 1.0))  # too wide: only the departure
print(faults(lambda: sim.state.release(route, mask)))
print(main(["dump-state", "--topology", sys.argv[1], "--arrivals", "0"]))
"""


def test_invariants_checked_under_python_O(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    proc = subprocess.run([sys.executable, "-O", "-c", UNDER_O, str(bad)], env=env_with_src(),
                          capture_output=True, text=True, timeout=60)
    assert proc.stdout.split() == ["False", "True", "True", "True", "2"], proc.stderr
    assert "error" in proc.stderr and "Traceback" not in proc.stderr
