"""Declarations of config settings and the one check that applies them.

Each setting is declared once, with its dotted YAML path, its kind, its
bounds and its default.  The settings a run needs live on
:class:`fedsim.engine.FedConfig` (see :func:`setting`); the rest are listed
in :mod:`fedsim.config`.  :func:`coerce` checks a value against its
declaration both when a YAML file is resolved and when ``FedConfig``
validates itself.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

from fedsim.errors import ConfigError

_BOUNDS = (
    ("gt", ">", operator.gt),
    ("ge", ">=", operator.ge),
    ("lt", "<", operator.lt),
    ("le", "<=", operator.le),
)


@dataclass(frozen=True)
class Setting:
    """One config setting.

    ``kind`` is ``int``, ``float``, ``bool``, ``str`` or a tuple of allowed
    strings; with ``many`` the setting is a list of such values.  A setting
    whose default is ``None`` may be null.  ``gt``/``ge``/``lt``/``le`` are
    open and closed bounds on a number (on every entry of a list).
    """

    path: str
    kind: object
    default: object = None
    many: bool = False
    gt: float | None = None
    ge: float | None = None
    lt: float | None = None
    le: float | None = None


def setting(path: str, kind, default=None, **declaration):
    """A dataclass field whose default and metadata come from one declaration."""

    return field(default=default, metadata={"setting": Setting(path, kind, default, **declaration)})


def coerce(setting: Setting, value, where: str, entry_paths: bool = True):
    """``value`` in the setting's kind (ints widen to floats, lists stay lists).

    Raises :class:`ConfigError` at ``where`` when the value does not fit.  A
    bad list entry is reported at ``where[i]``, or at ``where`` itself when
    ``entry_paths`` is false.
    """

    if value is None and setting.default is None:
        return None
    if not setting.many:
        return _coerce_one(setting, value, where)
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"expected a list, got {value!r}", field=where)
    return [
        _coerce_one(setting, v, f"{where}[{i}]" if entry_paths else where)
        for i, v in enumerate(value)
    ]


def _coerce_one(setting: Setting, value, where: str):
    kind = setting.kind
    if kind is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"expected true or false, got {value!r}", field=where)
        return value
    if kind is str or isinstance(kind, tuple):
        if not isinstance(value, str):
            raise ConfigError(f"expected a string, got {value!r}", field=where)
        if isinstance(kind, tuple) and value not in kind:
            raise ConfigError(f"must be one of {kind}, got {value!r}", field=where)
        return value
    if isinstance(value, bool):
        raise ConfigError("expected a number, got a boolean", field=where)
    if kind is int and not isinstance(value, int):
        raise ConfigError(f"expected an integer, got {value!r}", field=where)
    if not isinstance(value, (int, float)):
        raise ConfigError(f"expected a number, got {value!r}", field=where)
    value = kind(value)
    for name, sign, holds in _BOUNDS:
        limit = getattr(setting, name)
        if limit is not None and not holds(value, limit):
            raise ConfigError(f"must be {sign} {limit}, got {value}", field=where)
    return value
