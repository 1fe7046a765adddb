"""The one job-size budget: every site that sizes a job against
DEFAULT_BRUTE_CAP refuses it in rb_model.check_cap's one line, before it
starts any of the work."""

from __future__ import annotations

import pytest

from rbcount import cnf_encode, experiments, rb_model
from rbcount.cnf_encode import Cnf, count_models, encode_direct
from rbcount.experiments import SweepConfig, count_instance, sweep_tightness
from rbcount.rb_model import CapExceeded, Instance, RbParams, generate


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


@pytest.mark.parametrize("job,message", [
    (_generate, "452608000000 nogoods exceed the cap of 100000000"),
    (_count_brute, "1000000000 assignments exceed the cap of 100000000"),
    (_sweep_brute, "549755813888 assignments exceed the cap of 100000000"),  # 8^13
    (_encode, "100005154 clauses exceed the cap of 100000000"),
    (_count_models, "134217728 boolean assignments exceed the cap of 100000000"),  # 2^27
], ids=["generate", "count-brute", "sweep-brute", "encode", "count-models"])
def test_every_budget_refuses_in_one_line_before_any_work(job, message, monkeypatch):
    with pytest.raises(CapExceeded) as info:
        job(monkeypatch)
    assert str(info.value) == message
