"""Every module stays under CPython 3.11's parser token buffer.

Once a module passes about 8190 significant tokens, compiling it from source
(as every benchmark repetition does with ``PYTHONDONTWRITEBYTECODE`` set)
makes CPython 3.11's parser grow a buffer that adds about 0.5 MB of peak
RSS, paid in the main process and in each forked ensemble worker.
"""

import tokenize
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "qtraj"
TOKEN_LIMIT = 8190


def significant_tokens(path: Path) -> int:
    """Tokens of a module, leaving out comments and non-logical newlines."""
    with path.open("rb") as f:
        return sum(
            tok.type not in (tokenize.COMMENT, tokenize.NL) for tok in tokenize.tokenize(f.readline)
        )


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_under_parser_token_limit(path):
    assert significant_tokens(path) < TOKEN_LIMIT
