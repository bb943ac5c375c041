from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11+

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fragsim"


def test_every_data_file_is_package_data():
    # a wheel without data/exp_ziggurat.json would fail at import
    with open(ROOT / "pyproject.toml", "rb") as fh:
        globs = tomllib.load(fh)["tool"]["setuptools"]["package-data"]["fragsim"]
    shipped = {p for g in globs for p in PACKAGE.glob(g)}
    files = {p for p in (PACKAGE / "data").rglob("*") if p.is_file()}
    assert PACKAGE / "data" / "exp_ziggurat.json" in files
    assert files - shipped == set()
