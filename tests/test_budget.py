"""The one job-size budget: every site that sizes a job against
DEFAULT_BRUTE_CAP refuses it in rb_model.check_cap's one line, before it
starts any of the work."""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

import rbcount
from rbcount import cnf_encode, experiments, rb_model
from rbcount.cnf_encode import Cnf, count_models, encode_direct
from rbcount.experiments import SweepConfig, count_instance, sweep_tightness
from rbcount.rb_model import CapExceeded, Instance, RbParams, check_cap, generate


def _never(what):
    def started(*args, **kwargs):
        raise AssertionError(f"{what} before the budget check")
    return started


class _Untouched(tuple):
    """Constraints or clauses that fail the test if anything walks them."""

    def __iter__(self):
        raise AssertionError("a walk started before the budget check")


def _generate(monkeypatch):
    monkeypatch.setattr(rb_model, "_lane_words", _never("a word drawn"))
    generate(RbParams(2, 40, 3.0, 1.5, 0.5))  # d=64000 m=221 t=2048000000


def _count_brute(monkeypatch):
    # count and decide --method brute count through count_instance
    count_instance(Instance(9, 10, _Untouched()), "brute")


def _sweep_brute(monkeypatch):
    monkeypatch.setattr(experiments, "generate", _never("an instance generated"))
    point = RbParams(k=2, n=13, alpha=0.8, r=1.7, p=0.2)  # d=8
    sweep_tightness(SweepConfig(point, grid_stop=0.24, grid_step=0.02,
                                instances_per_point=3, method="brute"),
                    progress=_never("a progress line printed"))


def _encode(monkeypatch):
    monkeypatch.setattr(cnf_encode, "boolean_var", _never("a clause built"))
    encode_direct(Instance(1, 14143, ()))  # 1 + 14143 * 14142 / 2 clauses


def _count_models(monkeypatch):
    count_models(Cnf(27, _Untouched()))


# d^n and 2^n at this n are refused from the exponent, never built.
HUGE_N = 10 ** 30


def _count_brute_huge_n(monkeypatch):
    count_instance(Instance(HUGE_N, 2, _Untouched()), "brute")


def _count_models_huge_n(monkeypatch):
    count_models(Cnf(HUGE_N, _Untouched()))


def _count_backtrack_huge_n(monkeypatch):
    # The walk's state holds n d-bit fields; it sized n-entry lists first.
    count_instance(Instance(HUGE_N, 2, _Untouched()), "backtrack")


@pytest.mark.parametrize("job,message", [
    (_generate, "452608000000 nogoods exceed the cap of 100000000"),
    (_count_brute, "1000000000 assignments exceed the cap of 100000000"),
    (_sweep_brute, "549755813888 assignments exceed the cap of 100000000"),  # 8^13
    (_encode, "100005154 clauses exceed the cap of 100000000"),
    (_count_models, "134217728 boolean assignments exceed the cap of 100000000"),  # 2^27
    (_count_brute_huge_n, f"at least 2^{HUGE_N} assignments exceed the cap of 100000000"),
    (_count_models_huge_n,
     f"at least 2^{HUGE_N} boolean assignments exceed the cap of 100000000"),
    (_count_backtrack_huge_n, f"{2 * HUGE_N} state bits exceed the cap of 100000000"),
], ids=["generate", "count-brute", "sweep-brute", "encode", "count-models",
        "count-brute-huge-n", "count-models-huge-n", "count-backtrack-huge-n"])
def test_every_budget_refuses_in_one_line_before_any_work(job, message, monkeypatch):
    with pytest.raises(CapExceeded) as info:
        job(monkeypatch)
    assert str(info.value) == message


def test_the_bound_on_a_power_names_a_lower_bound_past_the_exact_path():
    # 3^e is built while e * floor(log2 3) = e stays within _EXACT_BITS; past
    # that the message names 2^e, which 3^e exceeds.
    bits = rb_model._EXACT_BITS
    exact = (3 ** bits).bit_length() - 1
    for exponent, shown in [(bits, exact), (bits + 1, bits + 1), (10 ** 6, 10 ** 6)]:
        with pytest.raises(CapExceeded) as info:
            check_cap(3, "assignments", exponent)
        assert str(info.value) == f"at least 2^{shown} assignments exceed the cap of 100000000"
    check_cap(10, "assignments", 8)  # 10^8 is the cap itself
    with pytest.raises(CapExceeded, match="^1000000000 assignments"):
        check_cap(10, "assignments", 9)


BRUTE_LINE = f"at least 2^{HUGE_N} assignments exceed the cap of 100000000"


@pytest.mark.parametrize("argv,line", [
    (["count", "--method", "brute", "{file}"], BRUTE_LINE),
    (["sweep", "-k", "2", "-n", str(HUGE_N), "-a", "0.01", "-r", "1",
      "--start", "0.3", "--stop", "0.4", "--step", "0.1", "--method", "brute"], BRUTE_LINE),
    (["count", "{file}"], f"{2 * HUGE_N} state bits exceed the cap of 100000000"),
], ids=["count", "sweep", "count-backtrack"])
def test_commands_refuse_a_huge_brute_space_at_once(argv, line, tmp_path):
    # The brute ones ran until the process was killed while d^n was built; the
    # backtrack one failed in an n-entry list with an unrelated message.
    path = tmp_path / "huge.rbcsp"
    path.write_text(f"rbcsp 1\nn {HUGE_N} d 2 k 2 m 0\n")
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(rbcount.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "rbcount.cli",
                           *(arg.format(file=path) for arg in argv)],
                          capture_output=True, text=True, env=env, timeout=2)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines() == [f"rbcount: error: {line}"]
