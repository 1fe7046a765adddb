"""Golden digests: the experiment outputs of fixed seeded configs.

The accuracy and comparison tables are pinned byte for byte.  The sweep is
pinned on its result columns, read by header name, so that timing and
work-count columns (wall_ms, mean_nodes) and columns added later do not
move the digest.  The sweep's SVG and manifest are pinned byte for byte on
both axes, the manifest without its host-dependent python_version line.
Every config runs in this process (--jobs 1) and through a process pool
(--jobs 2); both must give the same bytes (the manifest records jobs).
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
SWEEP_R = ["sweep", "-k", "2", "-n", "6", "-a", "0.8", "-p", "0.25", "--vary", "r",
           "--start", "0.5", "--stop", "2.5", "--step", "0.25", "--instances", "10",
           "--seed", "3"]
# axis: (argv, SVG digest, {jobs: manifest digest})
SWEEP_EXTRAS = {
    "p": (SWEEP, "26ea9f2edf57420da315e25da1c7421cfdd81b358c3a53f46d6099f2ed95af2f",
          {1: "48ef599cc75d5286f2c76fb6de8764fce0716eb906cbed33d110e0c4341d1d18",
           2: "5d6479f28e4ae0f2588d74179bd849cbc98d2b8d66ac97253e5076ad65fd8338"}),
    "r": (SWEEP_R, "f3e7fd573b4110ae0a2023b26aee15075790d53638dd62799d53ff7f0c0fbf90",
          {1: "9e1908b22d9241caadc59f0d2810e93ba07a8f1a64b4a16f2013365eb933c4fe",
           2: "716d8a64f26b60899e54f3aa02439dccb86e7c2500b7275342b8f015936ef99e"}),
}


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


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("axis", sorted(SWEEP_EXTRAS))
def test_sweep_svg_and_manifest_are_pinned(axis, jobs, tmp_path, capsys):
    argv, svg_digest, manifest_digests = SWEEP_EXTRAS[axis]
    svg, manifest = tmp_path / "s.svg", tmp_path / "m.txt"
    run_to_file(argv + ["--jobs", str(jobs), "--svg", str(svg),
                        "--manifest", str(manifest)], tmp_path / "s.csv", capsys)
    assert sha256(svg.read_bytes()) == svg_digest
    lines = manifest.read_bytes().splitlines(keepends=True)
    kept = b"".join(line for line in lines if not line.startswith(b"python_version = "))
    assert len(kept) < sum(map(len, lines))  # the dropped line was there
    assert sha256(kept) == manifest_digests[jobs]
