"""A run's helper processes, and the one call that runs a phase in every process.

:class:`Helpers` forks one helper per share of a run beyond the first,
which the forking process keeps.  Each process keeps its own side for the
whole run: its share of the clients, its part of every merge, the clusters
it owns and the run's shared slots, which a helper inherits through the
fork with the run itself.  A round is a few phases, functions
``phase(run, *args, me)`` handed over when the helpers are built, where
``me`` is the running process's own side; :meth:`Helpers.each` runs one in
every process and returns their replies.  A helper's loop knows no round:
it runs each phase the parent names and replies with its result.

The processes send each other only control, in :func:`_send` messages:
each phase's index and arguments, its reply, and the flags and KL table
of the Stage-2 lockstep (:class:`Lockstep`).  An exception in a reply
arrives as itself, with the helper's traceback as its cause; so does one
that a helper's phase raises, which the parent raises where it reads the
helper's next message.  This module knows nothing of federated learning.
"""

from __future__ import annotations

import os
import pickle

import numpy as np

from fedsim.errors import EngineError


def cpus() -> int:
    """The CPUs this process may use (``os.sched_getaffinity``), or one where
    ``os.fork`` or ``os.sched_getaffinity`` is missing."""

    forks = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    return len(os.sched_getaffinity(0)) if forks else 1


def _send(pipe, obj) -> None:
    """Write ``obj`` to ``pipe`` as one message, which :func:`_recv` reads:
    the length of its pickle (8 bytes), then the pickle."""

    data = pickle.dumps(obj, protocol=5)
    view = memoryview(len(data).to_bytes(8, "little") + data)
    while view:
        view = view[pipe.write(view) :]


def _read(pipe, size: int) -> bytearray:
    """The next ``size`` bytes of ``pipe``; :class:`EOFError` if it ends first."""

    data = bytearray(size)
    view = memoryview(data)
    while view:
        count = pipe.readinto(view)
        if not count:
            raise EOFError("pipe closed")
        view = view[count:]
    return data


def _recv(pipe):
    """The next object :func:`_send` wrote to ``pipe``."""

    return pickle.loads(_read(pipe, int.from_bytes(_read(pipe, 8), "little")))


class _RemoteTraceback(Exception):
    """A helper's formatted traceback: the ``__cause__`` of an exception it sent."""


class _Sent:
    """An exception as a helper sends it.  It unpickles as the exception
    itself, type and message unchanged, with the helper's formatted traceback
    as its ``__cause__``, as ``concurrent.futures`` does for its workers."""

    def __init__(self, exc: BaseException):
        import traceback  # here, not above: only a failure formats one

        self.exc = exc
        self.text = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))

    def __reduce__(self):
        return _with_remote_cause, (self.exc, self.text)


def _with_remote_cause(exc: BaseException, text: str) -> BaseException:
    exc.__cause__ = _RemoteTraceback(f'\n"""\n{text}"""')
    return exc


def _sendable(obj):
    """``obj`` with every exception in it, at any depth of lists and tuples,
    as :class:`_Sent`."""

    if isinstance(obj, BaseException):
        return _Sent(obj)
    if isinstance(obj, (list, tuple)):
        return type(obj)(map(_sendable, obj))
    return obj


class Lockstep:
    """Stage 2 in one process alone: it steps every cluster in ``owned``.

    Spread over processes, each steps the clusters it owns; :class:`Helpers`
    is the parent's side and :class:`_Peer` a helper's, both with the run's
    ``slots``, whose ``logits[step]`` holds every cluster's logits at a
    step.  For each step, :meth:`gather` writes the logits of this process's
    clusters (``None`` once it has failed) to their slots and, once
    :meth:`agree` says every process is ok, returns every cluster's in
    cluster order, else ``None``, which ends Stage 2 in all of them.  At the
    end, :meth:`finish` takes this process's per-step KL values (one column
    per owned cluster) and first failure (``None`` if none), and returns
    those of every cluster and the first failure of any process.
    """

    def __init__(self, owned, slots=None):
        self.owned = list(owned)
        self.slots = slots

    def gather(self, step: int, logits: list[np.ndarray] | None) -> list[np.ndarray] | None:
        if self.slots is None:
            return logits
        if logits is not None:
            self.slots.logits[step][self.owned] = logits
        return list(self.slots.logits[step]) if self.agree(logits is not None) else None

    def finish(self, kl: np.ndarray, failure: tuple | None) -> tuple[np.ndarray, tuple | None]:
        return kl, failure


class _Peer(Lockstep):
    """A helper's own side, the ``me`` of every phase it runs: its share of
    the clients ``share``, its part ``part`` of every merge, the clusters it
    owns, the run's ``slots``, and its end of the Stage-2 lockstep over its
    pipes to the parent, ``commands`` and ``replies``.

    For each step it tells the parent whether it is ok and hears whether
    every process is.  At the end it sends its KL values and its first
    failure; a helper that failed or was stopped then ends, as the parent
    raises the first failure and reaps it.
    """

    def __init__(self, share: list[int], owned: list[int], part: tuple[int, int], slots):
        super().__init__(owned, slots)
        self.share, self.part = share, part
        self.stopped = False

    def agree(self, ok):
        _send(self.replies, ok)
        self.stopped = not _recv(self.commands)
        return not self.stopped

    def finish(self, kl, failure):
        _send(self.replies, _sendable((kl, failure)))
        if failure is not None or self.stopped:
            os._exit(0)
        return kl, None


class _Helper:
    """A forked process that runs, as ``me``, each phase the parent names,
    ``phases[k](run, *args, me)``, and replies with its result, until its
    command pipe reaches end of file.  It inherits ``run`` and the slots
    through the fork.

    The helper ends only through ``os._exit``, so it never returns into the
    caller or flushes the stdio it inherited.  A phase that raises is
    answered with its exception, which :meth:`recv` raises, and the helper
    ends; it also ends on any other error of its own, and when its command
    pipe ends: the parent closes the pipe to stop it, and the pipe also ends
    if the parent dies.
    """

    def __init__(self, run, phases: tuple, me: _Peer, others: list[_Helper]):
        self.share, self.owned = me.share, me.owned
        commands_r, commands_w = os.pipe()
        replies_r, replies_w = os.pipe()
        try:
            self.pid = os.fork()
        except BaseException:
            for fd in (commands_r, commands_w, replies_r, replies_w):
                os.close(fd)
            raise
        if self.pid == 0:
            try:
                os.close(commands_w)
                os.close(replies_r)
                for other in others:
                    other.close()
                me.commands, me.replies = open(commands_r, "rb", buffering=0), open(replies_w, "wb", buffering=0)
                while True:
                    k, args = _recv(me.commands)
                    try:
                        reply = _sendable(phases[k](run, *args, me))
                    except BaseException as exc:
                        _send(me.replies, _Sent(exc))
                        raise
                    _send(me.replies, reply)
            finally:
                os._exit(0)
        os.close(commands_r)
        os.close(replies_w)
        self.commands = open(commands_w, "wb", buffering=0)
        self.replies = open(replies_r, "rb", buffering=0)

    def send(self, obj, where: str = "") -> None:
        """Send ``obj`` to the helper; a closed pipe is ``EngineError("{where}helper {pid} has exited")``."""

        try:
            _send(self.commands, obj)
        except OSError as exc:
            raise EngineError(f"{where}helper {self.pid} has exited") from exc

    def recv(self, where: str = ""):
        """The helper's next message, raised if it is an exception; a closed
        pipe is an :class:`EngineError`, as in :meth:`send`."""

        try:
            reply = _recv(self.replies)
        except (OSError, EOFError) as exc:
            raise EngineError(f"{where}helper {self.pid} has exited") from exc
        if isinstance(reply, BaseException):
            raise reply
        return reply

    def close(self) -> None:
        self.commands.close()
        self.replies.close()


class Helpers(Lockstep):
    """A run's helpers, and this process's own side of every phase and of
    the Stage-2 lockstep.

    ``shares`` and ``owners`` hold, per process, its share of the clients
    and the clusters it owns.  This process keeps the first of each
    (``share`` and ``owned``); one :class:`_Helper` per further share takes
    the rest.  ``serving`` lists the helpers that own a cluster, and only
    they take part in Stage 2.  Process ``k`` (this one is 0) merges part
    ``part = (k, count)`` of every vector.  ``slots`` must be shared memory
    mapped before this forks.  ``phases`` are the functions :meth:`each`
    runs, with ``run`` as their first argument.  Leaving a ``with`` block
    reaps every helper, killing it first if an exception ends the block.
    """

    def __init__(self, run, shares: list[list[int]], owners: list[list[int]], slots, phases: tuple):
        count, self.cluster_count = len(shares), sum(map(len, owners))
        (self.share, *shares), (owned, *owners) = shares, owners
        super().__init__(owned, slots)
        self.run, self.phases, self.part = run, phases, (0, count)
        self.processes: list[_Helper] = []
        try:
            for k, (share, clusters) in enumerate(zip(shares, owners), 1):
                me = _Peer(share, clusters, (k, count), slots)
                self.processes.append(_Helper(run, phases, me, self.processes))
        except BaseException:
            self.stop(kill=True)
            raise
        self.serving = [helper for helper in self.processes if helper.owned]

    def __enter__(self) -> Helpers:
        return self

    def __exit__(self, exc_type, exc, traceback) -> None:
        self.stop(kill=exc_type is not None)

    def each(self, phase, *args, where: str = "", serving: bool = False) -> list[tuple]:
        """Run ``phase(run, *args, me)`` in every process (with ``serving``,
        in this one and the helpers in :attr:`serving` only), and return each
        process and its reply, this one first, then the helpers in order.

        ``phase`` is one of ``phases``, and a helper is told its index.
        Every helper has its command before this process runs its own; a
        closed pipe is an :class:`EngineError` starting with ``where``.
        """

        helpers = self.serving if serving else self.processes
        for helper in helpers:
            helper.send((self.phases.index(phase), args), where)
        replies = [(self, phase(self.run, *args, self))]
        return replies + [(helper, helper.recv(where)) for helper in helpers]

    def agree(self, ok):
        for helper in self.serving:
            ok = helper.recv() and ok
        for helper in self.serving:
            helper.send(ok)
        return ok

    def finish(self, kl, failure):
        table = np.empty((kl.shape[0], self.cluster_count))
        table[:, self.owned] = kl
        failures = [] if failure is None else [failure]
        for helper in self.serving:
            table[:, helper.owned], theirs = helper.recv()
            if theirs is not None:
                failures.append(theirs)
        return table, min(failures, key=lambda f: f[0], default=None)

    def stop(self, kill: bool) -> None:
        """Close every helper's pipes, which stops an idle one, kill each one
        if ``kill``, and reap them all."""

        for helper in self.processes:
            helper.close()
        for helper in self.processes:
            if kill:
                import signal  # here, not above: a run that ends well never loads it

                os.kill(helper.pid, signal.SIGKILL)
            os.waitpid(helper.pid, 0)
