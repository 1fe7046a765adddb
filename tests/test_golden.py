"""Golden digests: the experiment outputs of fixed seeded configs.

The accuracy and comparison tables are pinned byte for byte.  The sweep is
pinned on its result columns, read by header name, so that timing and
work-count columns (wall_ms, mean_nodes) and columns added later do not
move the digest.  The sweep's SVG and manifest are pinned byte for byte on
both axes, the manifest without its host-dependent python_version line.
Every config runs in this process (--jobs 1) and through a process pool
(--jobs 2); both must give the same bytes (the manifest records jobs).
The generator is pinned on its own: the written text of one instance per
(params, seed) pair, over arities 2..5, domains of 10 and more, seeds at
both ends of the 64-bit range, and a point whose d^k exceeds 2^64, so
nogood indices take more than one word to draw.
The DIMACS path is pinned end to end: the full `rbcount encode` output,
comment lines included, of instances written by `rbcount gen -o` at arities
2 to 4 and at a k=3 point of the paper's larger grid, and of the checked-in
tiny instance.
"""

from __future__ import annotations

import csv
import hashlib
import io
import pathlib

import pytest

from rbcount.cli import main
from rbcount.rb_model import RbParams, generate, write_instance

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

TOP_SEED = 2 ** 64 - 1
MID_SEED = 2 ** 63 + 5
# ((k, n, alpha, r, p), seed, digest); comments give the derived d, m, t_nogoods
GENERATED = [
    ((2, 7, 0.8, 1.7, 0.05), 0,  # d=5 m=23 t=1
     "e22f42fb16d660fd82d06bac967535a4994e6986eb828e220a65440490e06708"),
    ((2, 7, 0.8, 1.7, 0.05), MID_SEED,
     "63a2da91382d6ca7042f71df6303d4c064a2916799e7416689f0c6fd387e5552"),
    ((2, 7, 0.8, 1.7, 0.25), 1,  # t=6
     "06495d804a9f69548363078c67828501b7cf756307c81e900ea1b3dadba5e5cc"),
    ((2, 7, 0.8, 1.7, 0.45), MID_SEED,  # t=11
     "c84e8ae99705deb5c97f16a450f07f521432e2ee638f22191cbf766dc6578ba4"),
    ((2, 10, 0.8, 1.7, 0.21), TOP_SEED,  # d=6 m=39 t=8
     "10b040d2b6b677b39060933ef2963052556f9ac13296c69ade6d717929d77cb7"),
    ((2, 10, 0.8, 1.7, 0.21), 1,
     "8529bbfabe722694b791212d0c460a44eafccc941fd7dee32bb853f56679b2c6"),
    ((2, 20, 0.8, 1.0, 0.3), 0,  # d=11 m=60 t=36
     "0d10b022fb6e8b50f867c4537dadf4d2ba6d135a340af0522291e2a68709e4d1"),
    ((2, 16, 0.85, 0.6, 0.9), 1,  # d=11 m=27 t=109
     "90951eb3194f4998aea3c24c87887bb91ba124b1512f7836994c87cef901a156"),
    ((3, 15, 0.85, 0.5, 0.1), MID_SEED,  # d=10 m=20 t=100
     "f5a6f807ec52c9dcff74a5734a47c5eb3d76a106e843a432e5670eaf9e345582"),
    ((3, 15, 0.85, 0.5, 0.1), 0,
     "c4c451d19cea0a20006a4a636e61d0a9651e4fb4b592992f26f39db3531587a7"),
    ((3, 9, 1.05, 0.7, 0.02), TOP_SEED,  # d=10 m=14 t=20
     "205bc074b921b6e4e04ba9ea835650b4e91508202ba9d99ce1eb2228f6f968eb"),
    ((3, 5, 0.9, 2.0, 0.6), 0,  # d=4 m=16 t=38
     "382b4b22647b9aa4ea81372168f8e5ad923810426008aa69a037027418f18e59"),
    ((4, 10, 1.0, 0.5, 0.01), 1,  # d=10 m=12 t=100
     "ca94d3d7c35f917a7a89fd9a23e684a3026b2ed08039fd280feb6e7f12cb82b8"),
    ((4, 10, 1.0, 0.5, 0.01), TOP_SEED,
     "1a1ad42041c17535f5b037b7806f55cb76e67efe4832a8d0c7ea2533f7700307"),
    ((4, 6, 1.3, 0.5, 0.003), MID_SEED,  # d=10 m=5 t=30
     "d3483954604deba6845fc2eb86b994d47c197da811c0454db1851c520d94a8c0"),
    ((5, 8, 1.1, 0.5, 0.001), TOP_SEED,  # d=10 m=8 t=100
     "e8067290fd4276a0af373aa13dcc6bb6b91bb4791882b74ebcad8a4aab23b587"),
    ((5, 5, 1.45, 0.4, 0.0002), 0,  # d=10 m=3 t=20
     "344106286c9b117aeb2e5b4b1893feb93a7488ef87df35d458e8022795cd2610"),
    ((5, 5, 1.45, 0.4, 0.0002), MID_SEED,
     "dc8b3732fe8337f996d94acefc6057c60d05584b07a2c65d2bb7ed64f00e39f7"),
    ((12, 12, 1.9, 0.5, 1e-30), 1,  # d=112 m=15 t=1, d^k > 2^64
     "bb570a22baca6008ce1ba8b1252883e3f5c2f5ce5acabac7afc79da67dc8ca54"),
    ((12, 12, 1.9, 0.5, 1e-30), TOP_SEED,
     "b5454769047c2177f998184c574c03224ed400c44fe101bb2443af794f2b6694"),
]


TINY = pathlib.Path(__file__).parent / "data" / "tiny.rbcsp"
# (gen arguments, or None for the tiny instance; digest of the encode output)
ENCODED = [
    # d=6 m=39 t=8
    (["-k", "2", "-n", "10", "-a", "0.8", "-r", "1.7", "-p", "0.21", "--seed", "1"],
     "df35c778253ffb18d02396e67b95d889f7d56dc0707b271a5e3af2688fecfac9"),
    # d=10 m=14 t=20
    (["-k", "3", "-n", "9", "-a", "1.05", "-r", "0.7", "-p", "0.02", "--seed", str(TOP_SEED)],
     "5d32d4b8c02ff5692276f8ac6c4c35867ceff96891ecb754ed3fcfe4f6acf2de"),
    # d=10 m=12 t=100
    (["-k", "4", "-n", "10", "-a", "1.0", "-r", "0.5", "-p", "0.01", "--seed", "1"],
     "5a8a801964f41298a5719c5f0b8e589cc08f6db195c877ec530986dcf5b7d091"),
    # d=10 m=57 t=260: a point of the export-n15 benchmark workload
    (["-k", "3", "-n", "15", "-a", "0.85", "-r", "1.4", "-p", "0.26", "--seed", "0"],
     "889479e53f4abb30d950b446fe86086fc47595d6ff30f98df6310841c1aa8c59"),
    (None, "a511b33a24729e49a29dbc4aa7a848856dc7d733f4de232580791eb4504c01d8"),
]


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


@pytest.mark.parametrize("point,seed,digest", GENERATED)
def test_generated_instance_bytes_are_pinned(point, seed, digest):
    sink = io.StringIO()
    write_instance(generate(RbParams(*point, seed=seed)), sink)
    assert sha256(sink.getvalue().encode()) == digest


@pytest.mark.parametrize("gen_args,digest", ENCODED)
def test_encoded_dimacs_bytes_are_pinned(gen_args, digest, tmp_path, capsys):
    source = TINY
    if gen_args is not None:
        source = tmp_path / "i.rbcsp"
        run_to_file(["gen"] + gen_args, source, capsys)
    data = run_to_file(["encode", str(source)], tmp_path / "i.cnf", capsys)
    assert sha256(data) == digest
