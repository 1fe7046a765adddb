"""Golden digests: the experiment outputs of fixed seeded configs.

The accuracy and comparison tables are pinned byte for byte.  The sweep is
pinned on its result columns, read by header name, so that timing and
work-count columns (wall_ms, mean_nodes) and columns added later do not
move the digest.  Every config runs in this process (--jobs 1) and through
a process pool (--jobs 2); both must give the same bytes.
"""

from __future__ import annotations

import csv
import hashlib
import io

import pytest

from rbcount.cli import main

POINT = ["-k", "2", "-n", "6", "-a", "0.8", "-r", "1.5", "-p", "0.25"]
POINT_K3 = ["-k", "3", "-n", "6", "-a", "0.8", "-r", "1.0", "-p", "0.1"]
SWEEP = ["sweep", "-k", "2", "-n", "6", "-a", "0.8", "-r", "1.5",
         "--start", "0.1", "--stop", "0.5", "--step", "0.05", "--instances", "10",
         "--seed", "3"]
SWEEP_COLUMNS = ("p", "p_eff", "yes_fraction", "mean_count_log", "median_count_log")

TABLES = {
    "accuracy": (["accuracy"] + POINT + ["--instances", "40", "--seed", "5"],
                 "2407f45c2b38c974645d391ff3cb808122897b742448eb9fc48a2a964bdddaf0"),
    "compare": (["compare"] + POINT + ["--instances", "40", "--seed", "5"],
                "4c73710ac7ba6fe7edd1db046aa0eaf06b8d129cea94efc913c2c63f40fb7471"),
    "compare-k3": (["compare"] + POINT_K3 + ["--instances", "20", "--seed", "1"],
                   "341d881195d9f24fbbbef879f6a5f67f010504c79b7ec8ca81f518d8543bb995"),
}
SWEEP_DIGEST = "0e1c09f155b5bec03e5a7629ef2823d9d74a49b453defdffc1ef294ab3a49450"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_to_file(argv, path, capsys) -> bytes:
    assert main(argv + ["-o", str(path)]) == 0
    capsys.readouterr()
    return path.read_bytes()


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("table", sorted(TABLES))
def test_table_csv_bytes_are_pinned(table, jobs, tmp_path, capsys):
    argv, digest = TABLES[table]
    data = run_to_file(argv + ["--jobs", str(jobs)], tmp_path / "t.csv", capsys)
    assert sha256(data) == digest


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_result_columns_are_pinned(jobs, tmp_path, capsys):
    data = run_to_file(SWEEP + ["--jobs", str(jobs)], tmp_path / "s.csv", capsys)
    rows = csv.DictReader(io.StringIO(data.decode("utf-8")))
    answer = "\n".join(",".join(row[c] for c in SWEEP_COLUMNS) for row in rows)
    assert sha256(answer.encode()) == SWEEP_DIGEST
