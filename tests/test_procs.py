"""``fedsim.procs`` on its own: toy phases on a toy context, no federated learning.

Each test builds :class:`~fedsim.procs.Helpers` at one, two and three
processes.  The shares and owners below give, at three processes, one
helper that owns a cluster and one that owns none; the test of the
mid-phase calls adds four, where two helpers that own one sit around one
that owns none.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import fedsim.procs
from fedsim.procs import Helpers

CONTEXT = {"name": "toy"}
SHARES = {1: [[0, 1, 2, 3]], 2: [[0, 2], [1, 3]], 3: [[0], [1, 3], [2]], 4: [[0], [1], [2], [3]]}
OWNERS = {1: [[0, 1]], 2: [[0], [1]], 3: [[0], [], [1]], 4: [[0], [1], [], [2]]}


def whoami(context, tag, me):
    """Who ran the phase, with its own side's share, part and clusters, and
    how many phases this process has run."""

    me.calls = getattr(me, "calls", 0) + 1
    return tag, context["name"], os.getpid(), me.share, me.part, me.owned, me.calls


def raised(exc):
    try:
        raise exc
    except Exception as caught:
        return caught


def failing(context, me):
    """A reply with an exception nested in it, as the engine's server half sends."""

    return 0.5, [1.0, raised(ValueError(f"bad part {me.part[0]}"))]


def vote(context, against, me):
    """Each process agrees unless its part is ``against``, then hands over
    its part and pid."""

    return me.agree(me.part[0] != against), me.collect((me.part[0], os.getpid()))


def raising(context, me):
    """A phase that raises in every helper, as a merge that runs out of memory."""

    if me.part[0]:
        raise LookupError(f"part {me.part[0]} found nothing")


PHASES = (whoami, failing, vote, raising)


def helpers(count):
    return Helpers(CONTEXT, SHARES[count], OWNERS[count], None, PHASES)


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


@pytest.mark.parametrize("count", [1, 2, 3])
def test_replies_come_back_in_process_order_parent_first(count):
    with helpers(count) as processes:
        replies = processes.each(whoami, "t0", where="round 0: ")
    assert [process for process, _ in replies] == [processes, *processes.processes]
    assert [reply[0:2] for _, reply in replies] == [("t0", "toy")] * count
    assert [reply[3:6] for _, reply in replies] == [
        (share, (k, count), owned) for k, (share, owned) in enumerate(zip(SHARES[count], OWNERS[count]))
    ]
    pids = [reply[2] for _, reply in replies]
    assert pids[0] == os.getpid() and len(set(pids)) == count
    assert_reaped(pids[1:])


@pytest.mark.parametrize("count", [1, 2, 3])
def test_serving_reaches_only_the_helpers_that_own_clusters(count):
    with helpers(count) as processes:
        served = processes.each(whoami, "served", serving=True)
        everyone = processes.each(whoami, "everyone")
    assert [process for process, _ in served] == [processes, *processes.serving]
    assert all(process.owned for process, _ in served)
    assert [reply[-1] for _, reply in everyone] == [2 if process.owned else 1 for process, _ in everyone]
    assert (count == 3) == (len(processes.serving) < len(processes.processes))


@pytest.mark.parametrize("count", [1, 2, 3])
def test_an_exception_nested_in_a_reply_arrives_with_the_helpers_traceback(count):
    with helpers(count) as processes:
        replies = processes.each(failing)
    for k, (process, (value, (first, exc))) in enumerate(replies):
        assert (value, first) == (0.5, 1.0)
        assert type(exc) is ValueError and str(exc) == f"bad part {k}"
        if process is processes:
            assert exc.__cause__ is None
        else:
            assert isinstance(exc.__cause__, fedsim.procs._RemoteTraceback)
            assert ", in raised\n" in str(exc.__cause__)


@pytest.mark.parametrize("count", [2, 3])
def test_an_exception_a_helpers_phase_raises_arrives_as_itself(count):
    with pytest.raises(LookupError, match="^part 1 found nothing$") as caught, helpers(count) as processes:
        pids = [helper.pid for helper in processes.processes]
        processes.each(raising)
    assert isinstance(caught.value.__cause__, fedsim.procs._RemoteTraceback)
    assert ", in raising\n" in str(caught.value.__cause__)
    assert_reaped(pids)


@pytest.mark.parametrize("count", [1, 2, 3, 4])
def test_agree_and_collect_reach_this_process_and_the_serving_helpers_in_order(count):
    # each vote has one process say no, or none (-1); a process that owns
    # no cluster is never asked
    with helpers(count) as processes:
        votes = [processes.each(vote, against, serving=True) for against in range(-1, count)]
        asked = [(0, os.getpid())] + [(processes.processes.index(h) + 1, h.pid) for h in processes.serving]
    assert [k for k, _ in asked] == [k for k, owned in enumerate(OWNERS[count]) if owned]
    for against, replies in enumerate(votes, -1):
        agreed = against not in [k for k, _ in asked]
        assert [reply for _, reply in replies] == [(agreed, asked)] + [(agreed, None)] * (len(asked) - 1)


@pytest.mark.parametrize("count", [1, 2, 3])
def test_every_helper_is_reaped_and_killed_when_the_block_fails(count):
    pids = []
    with pytest.raises(KeyError), helpers(count) as processes:
        pids = [reply[2] for _, reply in processes.each(whoami, "t0")[1:]]
        raise KeyError("stop")
    assert len(pids) == count - 1
    assert_reaped(pids)


def test_procs_imports_nothing_of_the_engine():
    src = Path(fedsim.procs.__file__).parents[1]
    check = "import sys, fedsim.procs; assert not {'fedsim.engine', 'numpy'} & set(sys.modules), sorted(sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", check], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
