"""Every declared setting rejects a wrong type and a value just past each bound.

The cases are generated from the declarations themselves, so a setting added
later is covered without touching this file.  Each bad value is tried through
``resolve_config`` (the error names the dotted path) and, for the settings
``FedConfig`` holds, through ``FedConfig.validate`` (the error names the field).
"""

from dataclasses import fields

import numpy as np
import pytest

from fedsim.config import SETTINGS, FedConfig, coerce, resolve_config
from fedsim.errors import ConfigError

FED_FIELD = {f.metadata["setting"].path: f.name for f in fields(FedConfig)}


def wrong_types(s):
    """Single values of the wrong type for the setting's kind."""

    if s.kind is bool:
        bad = [1, "yes"]
    elif s.kind is str or isinstance(s.kind, tuple):
        bad = [5]
    elif s.kind is int:
        bad = ["x", True, 1.5]
    else:
        bad = ["x", False]
    return bad if s.default is None else bad + [None]


def nudge(s, value, direction):
    """The next value of the setting's kind above (+1) or below (-1) ``value``."""

    if s.kind is int:
        return value + direction
    return float(np.nextafter(value, direction * np.inf))


def edges(s):
    """(just outside, just inside) a pair of values for each bound of a number."""

    pairs = []
    bounds = ((s.gt, -1, False), (s.ge, -1, True), (s.lt, 1, False), (s.le, 1, True))
    for bound, outward, closed in bounds:
        if bound is not None:
            bound = s.kind(bound)
            if closed:
                pairs.append((nudge(s, bound, outward), bound))
            else:
                pairs.append((bound, nudge(s, bound, -outward)))
    return pairs


def past_bounds(s):
    """Single values just outside each bound (or not among the choices)."""

    if isinstance(s.kind, tuple):
        return ["not-a-choice"]
    return [outside for outside, _ in edges(s)]


def bad_cases(s):
    """(value, dotted path of the error, field-name error) for one setting."""

    entry = s.path if s.path in FED_FIELD else f"{s.path}[0]"
    name = FED_FIELD.get(s.path)
    singles = wrong_types(s) + past_bounds(s)
    if not s.many:
        return [(v, s.path, name) for v in singles]
    return [("x" if s.kind is not str else 5, s.path, name)] + [
        ([v], entry, name) for v in singles if v is not None
    ]


def raw_with(path, value):
    raw = {"clients": {"count": 4}}
    section, _, key = path.rpartition(".")
    (raw.setdefault(section, {}) if section else raw)[key] = value
    return raw


CASES = [(s, *case) for s in SETTINGS for case in bad_cases(s)]


def test_each_path_is_declared_once():
    assert len({s.path for s in SETTINGS}) == len(SETTINGS)


@pytest.mark.parametrize(
    "s, value, path, name", CASES, ids=[f"{c[0].path}={c[1]!r}" for c in CASES]
)
def test_bad_value_is_rejected_at_its_path(s, value, path, name):
    with pytest.raises(ConfigError) as err:
        resolve_config(raw_with(s.path, value))
    assert err.value.field == path
    if name is not None:
        with pytest.raises(ConfigError) as err:
            FedConfig(**{name: value}).validate()
        assert err.value.field == name


@pytest.mark.parametrize("s", [s for s in SETTINGS if edges(s)], ids=lambda s: s.path)
def test_values_on_the_inner_side_of_each_bound_pass(s):
    for _, value in edges(s):
        given = [value] if s.many else value
        assert coerce(s, given, s.path) == given


def test_ints_widen_to_floats_and_lists_stay_lists():
    cfg = resolve_config(raw_with("clients.workload_units", 10))
    assert cfg.resolved["clients"]["workload_units"] == 10.0
    assert isinstance(cfg.fed.workload_units, float)
    cfg = resolve_config(raw_with("clustering.rate_ladder", (1, 0.5)))
    assert cfg.resolved["clustering"]["rate_ladder"] == [1.0, 0.5]
    assert cfg.fed.rate_ladder == (1.0, 0.5)
