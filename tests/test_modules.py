"""Limits on the package's source files themselves."""

import tokenize
from pathlib import Path

import pytest

import fedsim

MODULES = sorted(Path(fedsim.__file__).parent.glob("*.py"))

# CPython 3.11's parser keeps a module's tokens in one array that doubles
# when it fills, and it fills at 8,192.  A module past that step peaks about
# 0.45 MB higher each time it is compiled, which under
# PYTHONDONTWRITEBYTECODE=1 is every time a process imports it.  Comments,
# blank lines and the encoding marker never reach the parser, so they do not
# count; docstrings cost one token each.
PARSER_TOKEN_STEP = 8192


def significant_tokens(path: Path) -> int:
    skipped = (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING)
    with path.open("rb") as source:
        return sum(1 for token in tokenize.tokenize(source.readline) if token.type not in skipped)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_module_stays_under_the_parsers_token_step(path):
    assert significant_tokens(path) < PARSER_TOKEN_STEP
