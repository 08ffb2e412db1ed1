"""A run's helper processes, and the one call that runs a phase in every process.

:class:`Helpers` forks ``count - 1`` helpers; the forking process is the
first of the ``count``.  Each process keeps its own side for the whole run:
its position ``part = (k, count)`` and the run's slots, which a helper
inherits through the fork with the run itself.  A round is a few phases,
functions ``phase(run, *args, me)`` handed over when the helpers are built,
where ``me`` is the running process's own side; :meth:`Helpers.each` runs
one in every process and returns their replies.  What a process does in a
phase, the phase reads from its arguments at ``me.part``.  A helper's loop
knows no round: it runs each phase the parent names and replies with its
result.

The processes send each other only control, in :func:`_send` messages:
each phase's index and arguments, its reply, and what a phase exchanges
mid-way through :meth:`Helpers.agree` and :meth:`Helpers.collect`, which
carry values they never look at.  An exception in a reply or a collected
value arrives as itself, with the helper's traceback as its cause; so does
one that a helper's phase raises, which the parent raises where it reads
the helper's next message.  This module knows nothing of federated
learning.
"""

from __future__ import annotations

import os
import pickle

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


class _Peer:
    """A helper's own side, the ``me`` of every phase it runs: its position
    ``part``, the run's ``slots``, and its pipes to the parent, ``commands``
    and ``replies``, over which a phase exchanges values mid-way with
    :meth:`agree` and :meth:`collect` (see :class:`Helpers`).
    """

    def __init__(self, part: tuple[int, int], slots):
        self.part, self.slots = part, slots

    def agree(self, ok: bool) -> bool:
        _send(self.replies, ok)
        return _recv(self.commands)

    def collect(self, value) -> None:
        _send(self.replies, _sendable(value))


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


class Helpers:
    """A run's ``count`` processes, and this process's own side of every phase.

    This process is the first, at position ``part = (0, count)``; one
    :class:`_Helper` is forked for each further position ``(k, count)``.
    ``slots`` must be mapped before this forks, so that every process sees
    the same memory.  ``phases`` are the functions :meth:`each` runs, with
    ``run`` as their first argument.  Leaving a ``with`` block reaps every
    helper, killing it first if an exception ends the block.

    A phase exchanges values mid-way, each process calling the same method
    on its own side ``me``: :meth:`agree` tells each whether every one is
    ok, and :meth:`collect` hands every value to this process.
    """

    def __init__(self, run, count: int, slots, phases: tuple):
        self.run, self.phases, self.part, self.slots = run, phases, (0, count), slots
        self.processes: list[_Helper] = []
        try:
            for k in range(1, count):
                self.processes.append(_Helper(run, phases, _Peer((k, count), slots), self.processes))
        except BaseException:
            self.stop(kill=True)
            raise

    def __enter__(self) -> Helpers:
        return self

    def __exit__(self, exc_type, exc, traceback) -> None:
        self.stop(kill=exc_type is not None)

    def each(self, phase, *args, where: str = "") -> list:
        """Run ``phase(run, *args, me)`` in every process and return their
        replies in process order, this one's first.

        ``phase`` is one of ``phases``, and a helper is told its index.
        Every helper has its command before this process runs its own; a
        closed pipe is an :class:`EngineError` starting with ``where``.
        """

        for helper in self.processes:
            helper.send((self.phases.index(phase), args), where)
        replies = [phase(self.run, *args, self)]
        return replies + [helper.recv(where) for helper in self.processes]

    def agree(self, ok: bool) -> bool:
        """Whether ``ok`` is true in every process."""

        for helper in self.processes:
            ok = helper.recv() and ok
        for helper in self.processes:
            helper.send(ok)
        return ok

    def collect(self, value) -> list:
        """``value`` and each helper's, in process order; a helper's
        :meth:`_Peer.collect` sends its own and returns ``None``."""

        return [value] + [helper.recv() for helper in self.processes]

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
