"""``fedsim.procs`` on its own: toy phases on a toy context, no federated learning.

Each test builds :class:`~fedsim.procs.Helpers` at one to four processes.
A process knows only its position ``me.part``; every phase runs in every
process.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import fedsim.procs
from fedsim.procs import Helpers

CONTEXT = {"name": "toy"}
COUNTS = [1, 2, 3, 4]


def whoami(context, tag, me):
    """Who ran the phase, at which position, and how many phases this
    process has run."""

    me.calls = getattr(me, "calls", 0) + 1
    return tag, context["name"], os.getpid(), me.part, me.calls


def raised(exc):
    try:
        raise exc
    except Exception as caught:
        return caught


def failing(context, me):
    """A reply with an exception nested in it, as the engine's server half sends."""

    return 0.5, [1.0, raised(ValueError(f"bad part {me.part[0]}"))]


def vote(context, against, me):
    """Each process agrees unless its position is ``against``, then hands
    over its position and pid."""

    return me.agree(me.part[0] != against), me.collect((me.part[0], os.getpid()))


def raising(context, me):
    """A phase that raises in every helper, as a merge that runs out of memory."""

    if me.part[0]:
        raise LookupError(f"part {me.part[0]} found nothing")


PHASES = (whoami, failing, vote, raising)


def helpers(count):
    return Helpers(CONTEXT, count, None, PHASES)


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


@pytest.mark.parametrize("count", COUNTS)
def test_every_process_runs_every_phase_and_replies_in_process_order(count):
    with helpers(count) as processes:
        first = processes.each(whoami, "t0", where="round 0: ")
        second = processes.each(whoami, "t1")
        pids = [helper.pid for helper in processes.processes]
    assert len(processes.processes) == count - 1
    assert [reply[:2] for reply in first] == [("t0", "toy")] * count
    assert [reply[3] for reply in first] == [(k, count) for k in range(count)]
    assert [reply[2] for reply in first] == [os.getpid(), *pids] == [reply[2] for reply in second]
    assert len(set(pids + [os.getpid()])) == count
    assert [reply[4] for reply in first] == [1] * count and [reply[4] for reply in second] == [2] * count
    assert_reaped(pids)


@pytest.mark.parametrize("count", COUNTS)
def test_agree_and_collect_reach_every_process_in_order(count):
    # each vote has one process say no, or none (-1)
    with helpers(count) as processes:
        votes = [processes.each(vote, against) for against in range(-1, count)]
        asked = list(enumerate([os.getpid()] + [helper.pid for helper in processes.processes]))
    for against, replies in enumerate(votes, -1):
        agreed = against == -1
        assert replies == [(agreed, asked)] + [(agreed, None)] * (count - 1)


@pytest.mark.parametrize("count", COUNTS)
def test_an_exception_nested_in_a_reply_arrives_with_the_helpers_traceback(count):
    with helpers(count) as processes:
        replies = processes.each(failing)
    assert len(replies) == count
    for k, (value, (first, exc)) in enumerate(replies):
        assert (value, first) == (0.5, 1.0)
        assert type(exc) is ValueError and str(exc) == f"bad part {k}"
        if k == 0:
            assert exc.__cause__ is None
        else:
            assert isinstance(exc.__cause__, fedsim.procs._RemoteTraceback)
            assert ", in raised\n" in str(exc.__cause__)


@pytest.mark.parametrize("count", COUNTS[1:])
def test_an_exception_a_helpers_phase_raises_arrives_as_itself(count):
    with pytest.raises(LookupError, match="^part 1 found nothing$") as caught, helpers(count) as processes:
        pids = [helper.pid for helper in processes.processes]
        processes.each(raising)
    assert isinstance(caught.value.__cause__, fedsim.procs._RemoteTraceback)
    assert ", in raising\n" in str(caught.value.__cause__)
    assert_reaped(pids)


@pytest.mark.parametrize("count", COUNTS)
def test_every_helper_is_reaped_and_killed_when_the_block_fails(count):
    pids = []
    with pytest.raises(KeyError), helpers(count) as processes:
        pids = [reply[2] for reply in processes.each(whoami, "t0")[1:]]
        raise KeyError("stop")
    assert len(pids) == count - 1
    assert_reaped(pids)


def test_procs_imports_nothing_of_the_engine():
    src = Path(fedsim.procs.__file__).parents[1]
    check = "import sys, fedsim.procs; assert not {'fedsim.engine', 'numpy'} & set(sys.modules), sorted(sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", check], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
