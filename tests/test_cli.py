"""End-to-end command-line checks, run in process through main()."""

from __future__ import annotations

import argparse
import io
import pathlib
import sys
import time

import pytest

from rbcount import cli
from rbcount.cli import build_parser, main
from rbcount.cnf_encode import read_dimacs
from rbcount.experiments import CSV_HEADER, sweep_header
from rbcount.rb_model import read_instance

from oracles import int_digit_limit

DATA = pathlib.Path(__file__).parent / "data"
TINY = str(DATA / "tiny.rbcsp")

GEN = ["gen", "-k", "2", "-n", "6", "-a", "0.8", "-r", "1.5", "-p", "0.3",
       "--seed", "42"]


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_writes_parseable_instance(tmp_path, capsys):
    out = tmp_path / "a.rbcsp"
    code, _, _ = run(GEN + ["-o", str(out)], capsys)
    assert code == 0
    inst = read_instance(io.StringIO(out.read_text()))
    assert inst.n == 6 and len(inst.constraints) == 16


def test_gen_is_deterministic(tmp_path, capsys):
    first, second = tmp_path / "a", tmp_path / "b"
    assert run(GEN + ["-o", str(first)], capsys)[0] == 0
    assert run(GEN + ["-o", str(second)], capsys)[0] == 0
    assert first.read_text() == second.read_text()


def test_gen_to_stdout(capsys):
    code, out, _ = run(GEN, capsys)
    assert code == 0
    assert out.startswith("# generated:") or out.startswith("rbcsp")
    assert "rbcsp 1\n" in out


def test_count_tiny_instance(capsys):
    code, out, _ = run(["count", TINY], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "3"
    # the root plus both values of variable 0; variable 1 is never branched
    # on, since its only neighbour is assigned, and counts by popcount
    assert lines[1] == "nodes 3"
    assert lines[2] == "method backtrack"
    assert lines[3] == "memo_states 1"  # the one root state


def test_count_reads_stdin(capsys, monkeypatch):
    text = pathlib.Path(TINY).read_text()
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, _ = run(["count", "-"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "3"


def test_decide_yes(capsys):
    # 3 solutions >= 2^(2/2) = 2
    code, out, _ = run(["decide", TINY], capsys)
    assert code == 0
    assert out.splitlines()[0] == "YES"
    assert "count 3" in out


def test_decide_no_with_exit_code(tmp_path, capsys):
    # same instance, divisor 1 would need 4 solutions; force NO via a
    # contradiction-heavy instance instead
    dense = tmp_path / "dense.rbcsp"
    dense.write_text("rbcsp 1\nn 2 d 2 k 2 m 1\nc 0 1\n"
                     "g 0 0\ng 0 1\ng 1 0\n")
    code, out, _ = run(["decide", str(dense)], capsys)
    assert code == 0 and out.splitlines()[0] == "NO"  # 1 < 2
    code, out, _ = run(["decide", str(dense), "--exit-code"], capsys)
    assert code == 3 and out.splitlines()[0] == "NO"
    code, out, _ = run(["decide", TINY, "--exit-code"], capsys)
    assert code == 0 and out.splitlines()[0] == "YES"


def test_estimate_reports_the_numbers(capsys):
    code, out, _ = run(["estimate", "-k", "2", "-n", "7", "-a", "0.8",
                        "-r", "1.5", "-p", "0.28"], capsys)
    assert code == 0
    fields = dict(line.split(" ", 1) for line in out.splitlines())
    assert fields["d"] == "5" and fields["m"] == "20"
    assert fields["t_nogoods"] == "7"
    assert float(fields["p_eff"]) == 0.28
    assert abs(float(fields["expected"]) - 109.5) < 0.1
    assert fields["prediction"] in ("YES", "NO", "CRITICAL")
    assert fields["interval_estimate_ok"] in ("True", "False")
    assert float(fields["interval_low"]) < float(fields["expected"])


def test_encode_produces_valid_dimacs(tmp_path, capsys):
    out = tmp_path / "tiny.cnf"
    code, _, _ = run(["encode", TINY, "-o", str(out)], capsys)
    assert code == 0
    cnf = read_dimacs(io.StringIO(out.read_text()))
    assert cnf.num_vars == 4
    assert (-1, -3) in cnf.clauses
    assert out.read_text().startswith("c rbcount ")


def test_sweep_writes_csv_and_extras(tmp_path, capsys):
    csv_path, svg_path, man_path = (tmp_path / x for x in ("s.csv", "s.svg", "s.txt"))
    code, _, err = run(["sweep", "-k", "2", "-n", "5", "-a", "0.8", "-r", "1.5",
                        "--start", "0.1", "--stop", "0.5", "--step", "0.2",
                        "--instances", "5", "-o", str(csv_path),
                        "--svg", str(svg_path), "--manifest", str(man_path)],
                       capsys)
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4  # header + grid points 0.1, 0.3, 0.5
    assert "p=0.1000" in err  # progress goes to stderr
    assert svg_path.read_text().startswith("<svg ")
    assert "experiment = sweep" in man_path.read_text()


def test_sweep_over_density_labels_its_axis(tmp_path, capsys):
    csv_path, svg_path, man_path = (tmp_path / x for x in ("s.csv", "s.svg", "s.txt"))
    code, _, err = run(["sweep", "-k", "2", "-n", "5", "-a", "0.8",
                        "-p", "0.2", "--vary", "r", "--start", "0.5", "--stop",
                        "2.5", "--step", "0.5", "--instances", "3",
                        "-o", str(csv_path), "--svg", str(svg_path),
                        "--manifest", str(man_path)], capsys)
    assert code == 0
    header = csv_path.read_text().splitlines()[0]
    assert header == ",".join(sweep_header("r"))
    assert header.startswith("r,p_eff,")
    assert "r=0.5000" in err
    # the critical density at p_eff = 3/16 is about 1.93, inside the grid
    assert "critical_density = 1.92" in man_path.read_text()
    assert 'stroke="red"' in svg_path.read_text()


def test_sweep_over_density_needs_p(capsys):
    code, _, err = run(["sweep", "-k", "2", "-n", "5", "-a", "0.8", "-r", "1.0",
                        "--vary", "r", "--start", "0.5", "--stop", "1.0",
                        "--step", "0.5"], capsys)
    assert code == 1
    assert "requires -p" in err


def test_sweep_needs_only_the_fixed_axis(capsys):
    grid = ["--start", "0.5", "--stop", "1.0", "--step", "0.5", "--instances", "2"]
    code, _, _ = run(["sweep", "-k", "2", "-n", "5", "-a", "0.8", "-p", "0.2",
                      "--vary", "r"] + grid, capsys)
    assert code == 0
    code, _, err = run(["sweep", "-k", "2", "-n", "5", "-a", "0.8", "-p", "0.2",
                        "--vary", "p"] + grid, capsys)
    assert code == 1
    assert "requires -r" in err
    # the swept axis starts at --start, so its own flag is refused, not dropped
    code, out, err = run(["sweep", "-k", "2", "-n", "5", "-a", "0.8", "-r", "1.5", "-p", "0.4",
                          "--start", "0.1", "--stop", "0.3", "--step", "0.2",
                          "--instances", "2"], capsys)
    assert code == 1 and out == ""
    assert err.splitlines() == ["rbcount sweep: error: -p cannot be given with "
                                "--vary p; the grid starts at --start"]
    code, out, err = run(["sweep", "-k", "2", "-n", "5", "-a", "0.8", "-r", "9", "-p", "0.2",
                          "--vary", "r"] + grid, capsys)
    assert code == 1 and out == ""
    assert err.splitlines() == ["rbcount sweep: error: -r cannot be given with "
                                "--vary r; the grid starts at --start"]


def test_deep_instance_counts(tmp_path, capsys):
    # a chain far longer than the recursion limit: the counter walks its depths
    # in a loop.  Binary strings of length n with no "00" number Fibonacci(n+2).
    n = 1500
    lines = ["rbcsp 1", f"n {n} d 2 k 2 m {n - 1}"]
    for v in range(n - 1):
        lines += [f"c {v} {v + 1}", "g 0 0"]
    chain = tmp_path / "chain.rbcsp"
    chain.write_text("\n".join(lines) + "\n")
    code, out, err = run(["count", str(chain)], capsys)
    a, b = 0, 1
    for _ in range(n + 2):
        a, b = b, a + b
    assert code == 0 and err == ""
    assert out.splitlines()[0] == str(a)


def _out_of_memory(instance):
    raise MemoryError


HUGE_D = "n 3 d 1" + "0" * 30 + " k 2 m 1\nc 0 1\ng 0 0\n"  # (1 << d) - 1 overflows
HUGE_N = "n 1" + "0" * 30 + " d 2 k 2 m 0\n"  # n is past an index-sized int


@pytest.mark.parametrize("command", ["count", "decide"])
@pytest.mark.parametrize("sizes,counter", [
    (HUGE_D, None),
    (HUGE_N, None),
    ("n 3 d 4 k 2 m 1\nc 0 1\ng 0 0\n", _out_of_memory),  # the counter's tables do not fit
], ids=["huge-d", "huge-n", "out-of-memory"])
def test_instances_too_large_to_count_exit_2(command, sizes, counter, tmp_path, capsys,
                                             monkeypatch):
    if counter is not None:
        monkeypatch.setattr(cli, "count_backtrack", counter)
    path = tmp_path / "big.rbcsp"
    path.write_text("rbcsp 1\n" + sizes)
    code, out, err = run([command, str(path)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("rbcount: error: ") and err.count("\n") == 1
    assert err.removeprefix("rbcount: error: ").strip()  # a MemoryError has no message


@pytest.mark.parametrize("sizes", [HUGE_D, HUGE_N], ids=["huge-d", "huge-n"])
def test_instances_too_large_to_encode_exit_2(sizes, tmp_path, capsys):
    # the clause count is checked before any clause is built
    path = tmp_path / "big.rbcsp"
    path.write_text("rbcsp 1\n" + sizes)
    out_path = tmp_path / "big.cnf"
    code, out, err = run(["encode", str(path), "-o", str(out_path)], capsys)
    assert code == 2 and out == "" and not out_path.exists()
    assert err.startswith("rbcount: error: ") and err.count("\n") == 1
    assert err.rstrip().endswith(" clauses exceed the cap of 100000000")


def test_integer_with_too_many_digits_exits_2(tmp_path, capsys):
    limit = int_digit_limit()
    path = tmp_path / "long.rbcsp"
    path.write_text(f"rbcsp 1\nn 1{'0' * limit} d 2 k 2 m 0\n")
    code, out, err = run(["count", str(path)], capsys)
    assert code == 2 and out == ""
    assert err.splitlines() == [f"rbcount: error: line 2: integer '1{'0' * 19}'... "
                                f"has too many digits ({limit + 1})"]
    assert len(err) < 200


@pytest.fixture
def huge_count_file(tmp_path):
    # no constraints: every one of the 10^5000 assignments is a solution
    path = tmp_path / "free.rbcsp"
    path.write_text("rbcsp 1\nn 5000 d 10 k 2 m 0\n")
    return str(path)


def test_huge_counts_print_exactly(huge_count_file, capsys):
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out, _ = run(["count", huge_count_file], capsys)
    assert code == 0
    assert out.splitlines()[0] == "1" + "0" * 5000
    code, out, _ = run(["decide", huge_count_file], capsys)
    assert code == 0
    assert out.splitlines()[:2] == ["YES", "count 1" + "0" * 5000]
    # the process-wide int-string limit is back where it was
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


# d = 64000, m = 221 and t = 2,048,000,000 nogoods per constraint at p = 0.5
HUGE_POINT = ["-k", "2", "-n", "40", "-a", "3", "-r", "1.5"]
NOGOOD_CAP_ERROR = "rbcount: error: 452608000000 nogoods exceed the cap of 100000000"


def test_gen_refuses_more_nogoods_than_the_cap(tmp_path, capsys):
    out = tmp_path / "huge.rbcsp"
    started = time.perf_counter()
    code, stdout, err = run(["gen", *HUGE_POINT, "-p", "0.5", "-o", str(out)], capsys)
    assert time.perf_counter() - started < 1.0
    assert code == 2 and stdout == ""
    assert err.splitlines() == [NOGOOD_CAP_ERROR]
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["sweep", "--start", "0.5", "--stop", "0.6", "--step", "0.1"],
    ["accuracy", "-p", "0.5"],
    ["compare", "-p", "0.5", "--jobs", "2"],
], ids=["sweep", "accuracy", "compare-jobs-2"])
def test_tables_refuse_more_nogoods_than_the_cap(command, tmp_path, capsys):
    csv_path = tmp_path / "t.csv"
    code, out, err = run(command + HUGE_POINT + ["-o", str(csv_path)], capsys)
    assert code == 2 and out == ""
    assert err.splitlines() == [NOGOOD_CAP_ERROR]  # no progress line
    assert not csv_path.exists()


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
@pytest.mark.parametrize("command", [
    ["sweep", "--start", "0.1", "--stop", "0.3", "--step", "0.2"],
    ["accuracy", "-p", "0.2"],
    ["compare", "-p", "0.2"],
    ["gen", "-p", "0.2"],
])
def test_seed_outside_64_bits_exit_2(command, seed, capsys):
    code, out, err = run(command + ["-k", "2", "-n", "5", "-a", "0.8", "-r", "1.5",
                                    "--seed", seed], capsys)
    assert code == 2 and out == ""
    assert err.splitlines() == ["rbcount: error: seed must fit in 64 bits"]


def test_accuracy_csv(tmp_path, capsys):
    out = tmp_path / "acc.csv"
    code, _, _ = run(["accuracy", "-k", "2", "-n", "5", "-a", "0.8", "-r", "1.5",
                      "-p", "0.2", "--deltas", "0.5,0.9", "--instances", "10",
                      "-o", str(out)], capsys)
    assert code == 0
    header, row = out.read_text().splitlines()
    assert "coverage_delta_0.5" in header and "coverage_delta_0.9" in header
    assert row.startswith("2,5,")


def test_accuracy_rejects_bad_deltas(capsys):
    code, _, err = run(["accuracy", "-k", "2", "-n", "5", "-a", "0.8",
                        "-r", "1.5", "-p", "0.2", "--deltas", "0.5,oops"], capsys)
    assert code == 1
    assert "bad delta list" in err
    code, _, err = run(["accuracy", "-k", "2", "-n", "5", "-a", "0.8",
                        "-r", "1.5", "-p", "0.2", "--deltas", ","], capsys)
    assert code == 1
    assert err.splitlines() == ["rbcount accuracy: error: empty delta list"]


def test_compare_csv(capsys):
    code, out, _ = run(["compare", "-k", "2", "-n", "5", "-a", "0.8", "-r", "1.5",
                        "-p", "0.2", "--instances", "10"], capsys)
    assert code == 0
    assert out.splitlines()[0].startswith("k,n,alpha,r,p,p_eff,instances,")


@pytest.mark.parametrize("command", [
    ["sweep", "--start", "0.1", "--stop", "0.5", "--step", "0.2"],
    ["accuracy", "-p", "0.2"],
    ["compare", "-p", "0.2"],
])
def test_zero_instances_exit_2(command, capsys):
    code, _, err = run(command + ["-k", "2", "-n", "5", "-a", "0.8", "-r", "1.5",
                                  "--instances", "0"], capsys)
    assert code == 2
    assert err.splitlines() == ["rbcount: error: instances per point must be "
                                ">= 1, got 0"]


SMALL = ["-k", "2", "-n", "5", "-a", "0.8"]
SWEEP_SMALL = ["sweep"] + SMALL + ["-r", "1.5", "--start", "0.1", "--stop", "0.5",
                                   "--step", "0.2", "--instances", "2"]


@pytest.mark.parametrize("argv,message", [
    (["gen"] + SMALL + ["-r", "inf", "-p", "0.2"],
     "density r must be finite and > 0, got inf"),
    (["gen", "-k", "2", "-n", "5", "-a", "inf", "-r", "1", "-p", "0.2"],
     "alpha must be finite and > 0, got inf"),
    (["estimate"] + SMALL + ["-r", "1e308", "-p", "0.2"],
     "sizes d = n^alpha, m = r*n*ln n or d^k overflow at k=2 n=5 alpha=0.8 r=1e+308"),
    (["gen", "-k", "2", "-n", "5", "-a", "1e6", "-r", "1", "-p", "0.2"],
     "sizes d = n^alpha, m = r*n*ln n or d^k overflow at k=2 n=5 alpha=1000000.0 r=1.0"),
    (["gen", "-k", "200", "-n", "200", "-a", "2", "-r", "0.1", "-p", "0.2"],
     "sizes d = n^alpha, m = r*n*ln n or d^k overflow at k=200 n=200 alpha=2.0 r=0.1"),
    (SWEEP_SMALL + ["--stop", "inf"],
     "grid start 0.1, stop inf and step 0.2 must be finite and span a finite "
     "number of steps"),
    (SWEEP_SMALL + ["--step", "inf"],
     "grid start 0.1, stop 0.5 and step inf must be finite and span a finite "
     "number of steps"),
])
def test_overflowing_parameters_exit_2(argv, message, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert err.splitlines() == ["rbcount: error: " + message]


@pytest.mark.parametrize("argv,message", [
    (SWEEP_SMALL + ["--jobs", "0"], "jobs must be >= 1, got 0"),
    (SWEEP_SMALL + ["--jobs", "-1"], "jobs must be >= 1, got -1"),
    (SWEEP_SMALL + ["--divisor", "1"], "divisor must be an integer >= 2, got 1"),
    (SWEEP_SMALL + ["--stop", "1.2", "--step", "0.3"],
     "tightness p must lie in (0, 1), got 1.0"),
    (["accuracy"] + SMALL + ["-r", "1.5", "-p", "0.2", "--jobs", "0"],
     "jobs must be >= 1, got 0"),
    (["compare"] + SMALL + ["-r", "1.5", "-p", "0.2", "--jobs", "0"],
     "jobs must be >= 1, got 0"),
    (["sweep"] + SMALL + ["-p", "0.2", "--vary", "r", "--start", "1", "--stop", "1e9",
                          "--step", "1e-9"],
     "grid of 999999999000000001 points exceeds the limit of 100000"),
])
def test_bad_run_config_exits_2_before_any_progress(argv, message, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert err.splitlines() == ["rbcount: error: " + message]


@pytest.mark.parametrize("band", ["nan", "-0.1"])
def test_estimate_rejects_a_nan_or_negative_band(band, capsys):
    argv = ["estimate", "-k", "2", "-n", "7", "-a", "0.8", "-r", "1.7", "-p", "0.2"]
    code, out, _ = run(argv + ["--band", "inf"], capsys)
    assert code == 0 and "prediction CRITICAL" in out
    code, out, err = run(argv + ["--band", band], capsys)
    assert code == 2 and out == ""
    assert err.splitlines() == [f"rbcount: error: critical_band must be >= 0, got {float(band)}"]


def test_usage_errors_exit_1(capsys):
    assert run(["count"], capsys)[0] == 1          # missing positional
    assert run(["nonsense"], capsys)[0] == 1       # unknown subcommand
    assert run([], capsys)[0] == 1                 # no subcommand at all
    assert run(["gen", "-k", "2"], capsys)[0] == 1  # missing required flags
    assert run(["count", TINY, "--method", "magic"], capsys)[0] == 1
    assert run(SWEEP_SMALL + ["--cap", "10"], capsys)[0] == 1  # no such option


def test_runtime_errors_exit_2(tmp_path, capsys):
    code, _, err = run(["count", str(tmp_path / "missing.rbcsp")], capsys)
    assert code == 2 and "error" in err

    bad = tmp_path / "bad.rbcsp"
    bad.write_text("rbcsp 1\nn 2 d 2 k 2 m 1\nc 0 1\ng 9 9\n")
    code, _, err = run(["count", str(bad)], capsys)
    assert code == 2 and "error" in err

    for token in ("1_0", "+1", "\u0661", "\uff11"):  # int() takes each of these
        bad.write_text(f"rbcsp 1\nn 2 d 2 k 2 m 1\nc 0 1\ng 0 {token}\n", encoding="utf-8")
        code, out, err = run(["count", str(bad)], capsys)
        assert code == 2 and out == ""
        assert err.splitlines() == [f"rbcount: error: line 4: expected integer, got {token!r}"]

    code, _, err = run(["gen", "-k", "2", "-n", "1", "-a", "0.8", "-r", "1.5",
                        "-p", "0.3"], capsys)  # n < k is a parameter error
    assert code == 2


def test_help_and_version_exit_0(capsys):
    assert run(["--help"], capsys)[0] == 0
    assert run(["--version"], capsys)[0] == 0
    assert run(["sweep", "--help"], capsys)[0] == 0


PARAMS = [("-k", None), ("-n", None), ("-a --alpha", None), ("-r", None), ("-p", None)]
BATCH = [("--seed", 0), ("--jobs", 1), ("-o --output", "-")]
OPTIONS = {
    "gen": PARAMS + [("--seed", 0), ("-o --output", "-")],
    "count": [("instance", None)],
    "decide": [("instance", None), ("--divisor", 2), ("--exit-code", False)],
    "estimate": PARAMS + [("--delta", 0.9), ("--divisor", 2), ("--band", 0.005)],
    "encode": [("instance", None), ("-o --output", "-")],
    "sweep": PARAMS + [("--vary", "p"), ("--start", None), ("--stop", None),
                       ("--step", None), ("--divisor", 2), ("--instances", 100)]
             + BATCH + [("--svg", None), ("--manifest", None)],
    "accuracy": PARAMS + [("--deltas", "0.5,0.6,0.7,0.8,0.9"), ("--instances", 300)] + BATCH,
    "compare": PARAMS + [("--instances", 300)] + BATCH,
}


def test_each_subcommand_declares_its_options():
    subs = next(action for action in build_parser()._actions
                if isinstance(action, argparse._SubParsersAction))
    declared = {name: [(" ".join(action.option_strings) or action.dest, action.default)
                       for action in sub._actions if action.dest != "help"]
                for name, sub in subs.choices.items()}
    assert declared == OPTIONS


@pytest.mark.parametrize("argv", [
    ["count", TINY],
    ["decide", TINY],
    SWEEP_SMALL,
    ["accuracy"] + SMALL + ["-r", "1.5", "-p", "0.2", "--instances", "2"],
    ["compare"] + SMALL + ["-r", "1.5", "-p", "0.2", "--instances", "2"],
], ids=["count", "decide", "sweep", "accuracy", "compare"])
def test_no_command_takes_a_counting_method(argv, capsys):
    # every command counts with count_backtrack; there is no counter to choose
    assert run(argv, capsys)[0] == 0
    code, out, err = run(argv + ["--method", "backtrack"], capsys)
    assert code == 1 and out == ""
    assert err.splitlines() == ["rbcount: error: unrecognized arguments: --method backtrack"]


def test_a_huge_divisor_answers_at_once(tmp_path, capsys):
    huge = str(10 ** 20)
    code, out, _ = run(["decide", TINY, "--divisor", huge], capsys)
    assert code == 0
    assert out.splitlines() == ["YES", "count 3", f"threshold d^(n/{huge}) with d=2 n=2"]
    csv_path = tmp_path / "s.csv"
    code, _, _ = run(SWEEP_SMALL + ["--divisor", huge, "-o", str(csv_path)], capsys)
    assert code == 0
    assert len(csv_path.read_text().splitlines()) == 4


def test_decide_rejects_bad_divisor(capsys, monkeypatch):
    def counter(instance):
        pytest.fail("decide counted before it checked --divisor")

    monkeypatch.setattr(cli, "count_backtrack", counter)
    code, _, err = run(["decide", TINY, "--divisor", "1"], capsys)
    assert code == 2
    assert err.splitlines() == ["rbcount: error: divisor must be an integer >= 2, got 1"]


def test_one_call_leaves_nothing_in_the_next(capsys):
    code, out, _ = run(["decide", TINY, "--divisor", "3"], capsys)
    assert code == 0 and "threshold d^(n/3) " in out
    code, out, _ = run(["decide", TINY], capsys)
    assert code == 0 and "threshold d^(n/2) " in out
    assert run(["decide", TINY, "--divisor", "two"], capsys)[0] == 1
    assert run(["decide", TINY], capsys)[0] == 0
