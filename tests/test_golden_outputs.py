"""Byte-level regression pins for the CSV files the CLI writes.

The digests were recorded from the code before the metric registry and the
shared replication runner replaced the hand-kept metric lists and the three
separate replication loops. Any change of a value, a column, a row order or
the number formatting shows up here. Each run uses the default
`--sample-every` of its command, except `transient`, so the per-command
defaults are pinned as well.
"""

import hashlib

import pytest

from conftest import data_file
from fragsim.cli import main

RUNS = {
    "transient": (
        ["transient", "--topology", data_file("net_a.json"),
         "--paths", data_file("net_a_paths.json"), "--load", "30",
         "--max-demand", "8", "--arrivals", "300", "--sample-every", "30",
         "--replications", "3", "--seed", "7"],
        {"transient_rep0.csv": "5c7f7a9ce9e0a6d633cfc24cb97eebbab3241933c962329c14ee606316087ec1",
         "transient_rep1.csv": "fc3062a5627b4ca15a8db4057689ee6fc04a07f0a2d2442311c9e0c6b4d381bc",
         "transient_rep2.csv": "2e947f77e4e2265a327cd7f98af586d970719b2606d6428ac73785ca25520fe8",
         "transient_summary.csv": "621ea5a2232a8a6fe912e218e30cc5556b6f2a2b6f9d9b74438cc6f26a3f2011"}),
    "sweep": (
        ["sweep", "--topology", data_file("fig_example.json"), "--loads", "3,6",
         "--max-demands", "2,3", "--warmup", "200", "--measure", "400",
         "--replications", "3", "--seed", "4"],
        {"sweep.csv": "bbf231b8bcd01872a542024196986f5e582a13176c251eb8ab6de2d76e393259"}),
    "scan_full": (
        ["scan", "--topology", data_file("fig_example.json"), "--load", "4",
         "--max-demand", "2", "--seed", "5"],
        {"scan.csv": "fbe633404f2a5c35fc274998fa8d68d1223225a3eca1fe9df569942f75c52709"}),
    "scan_budget": (
        ["scan", "--topology", data_file("net_a.json"), "--load", "20",
         "--seed", "5", "--scan-max-arrivals", "3000"],
        {"scan.csv": "67d0d7f39a509b84491b790e8b8728220a39a74e5bda262855053f645748e55d"}),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_csv_bytes_unchanged(name, tmp_path, capsys):
    argv, digests = RUNS[name]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    capsys.readouterr()
    written = sorted(p.name for p in tmp_path.glob("*.csv"))
    assert written == sorted(digests)
    for fname, want in digests.items():
        got = hashlib.sha256((tmp_path / fname).read_bytes()).hexdigest()
        assert got == want, fname
