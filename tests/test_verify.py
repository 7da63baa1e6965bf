"""The verify suite's seeded corpora, and the forked copy-detector check."""
import json
import os
import random
import signal
import threading

import pytest

from posetlab import verify
from posetlab.cli import run
from posetlab.errors import InvalidParam
from posetlab.verify import (
    _random_poset,
    check_f23,
    check_middle_saturation,
    check_small_n_oracle,
    run_suite,
)


def test_built_posets_keep_the_corpus():
    """Looking a draw up in built leaves every poset and every later draw
    as they are without it; only 75 draws exist at four elements."""
    rng, rng2 = random.Random(20240805), random.Random(20240805)
    built = {}
    for _ in range(10_000):
        assert _random_poset(rng, 4, built) == _random_poset(rng2, 4)
    assert rng.getstate() == rng2.getstate()
    assert len(built) <= 75


@pytest.mark.parametrize("suite", ["ful", "", "ALL", None])
def test_run_suite_rejects_unknown_suite_names(suite):
    with pytest.raises(InvalidParam, match="unknown suite"):
        run_suite(suite=suite, max_n=2)


def test_small_n_oracle_check_passes_with_the_pinned_value():
    """Only `verify paper --suite all` runs this check."""
    res = check_small_n_oracle()
    assert res.passed
    assert res.observed["y22pair_rank_preserving"] == "10"


def test_middle_saturation_check_reaches_n7():
    res = check_middle_saturation(7)
    assert res.passed
    assert res.observed["perN"] == {str(n): "free=True,saturated=True" for n in (5, 6, 7)}


def test_f23_check_reports_the_closed_form_beside_the_flagged_candidate():
    res = check_f23()
    assert res.passed
    for n, size in (("6", 22), ("8", 75)):
        assert f"formulaMatches=False,closedForm={size},closedFormMatches=True" in res.observed[n]


@pytest.fixture
def forks(monkeypatch):
    """Counts os.fork calls; fails a test that hangs for a minute, and one
    that leaves a child of this process unreaped."""
    calls = []
    fork = os.fork

    def counted():
        calls.append(1)
        return fork()

    def hung(signum, frame):
        raise TimeoutError("run_suite hung")

    monkeypatch.setattr(os, "fork", counted)
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        yield calls
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("suite, max_n", [("fast", 3), ("all", 4)])
def test_the_forked_and_in_process_reports_are_the_same(forks, monkeypatch, suite, max_n):
    forked = json.dumps(run_suite(suite, max_n))
    assert len(forks) == 1
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 1)
    assert json.dumps(run_suite(suite, max_n)) == forked
    assert len(forks) == 1


def test_the_suite_runs_in_process_beside_a_thread_or_without_a_fork(forks, monkeypatch):
    want = json.dumps(run_suite("fast", 2))
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert json.dumps(run_suite("fast", 2)) == want
    finally:
        stop.set()
        thread.join()
    assert len(forks) == 1

    def refused():
        forks.append(1)
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", refused)
    assert json.dumps(run_suite("fast", 2)) == want
    monkeypatch.delattr(os, "fork")
    assert json.dumps(run_suite("fast", 2)) == want
    assert len(forks) == 2


def test_an_error_in_the_child_is_raised_again_in_the_parent(forks, monkeypatch, capsys):
    def bad(triples, seed):
        raise InvalidParam(f"no oracle for {triples} triples")

    monkeypatch.setattr(verify, "check_copy_detector", bad)
    with pytest.raises(InvalidParam, match="^no oracle for 1000 triples$"):
        run_suite("fast", 2)
    assert run(["verify", "paper", "--suite", "fast", "--max-n", "2"]) == 2
    assert capsys.readouterr().err == "posetlab: no oracle for 1000 triples\n"
    assert len(forks) == 2


def test_a_killed_child_makes_the_parent_raise(forks, monkeypatch):
    monkeypatch.setattr(verify, "check_copy_detector",
                        lambda triples, seed: os.kill(os.getpid(), signal.SIGKILL))
    with pytest.raises(RuntimeError, match=r"without a result \(exit code -9\)"):
        run_suite("fast", 2)
    assert len(forks) == 1


def test_an_error_in_the_parent_kills_and_reaps_the_child(forks, monkeypatch):
    def slow(triples, seed):
        signal.pause()

    def bad(max_n):
        raise InvalidParam("parent side")

    monkeypatch.setattr(verify, "check_copy_detector", slow)
    monkeypatch.setattr(verify, "check_sperner", bad)
    with pytest.raises(InvalidParam, match="parent side"):
        run_suite("fast", 2)
    assert len(forks) == 1
