"""The commands and configs that README.md and PAPER.md show are runnable:
every `chiralgate ...` line of a fenced sh block parses with the CLI's own
parser, and every fenced yaml block is a valid config."""

import re
import shlex
from pathlib import Path

import pytest
import yaml

from chiralgate.cli import _build_parser
from chiralgate.config import validate_config

ROOT = Path(__file__).resolve().parent.parent
DOCS = ("README.md", "PAPER.md")
FENCE = re.compile(r"^```(\w*)\n(.*?)^```", re.MULTILINE | re.DOTALL)


def blocks(doc: str, lang: str) -> list[str]:
    return [body for tag, body in FENCE.findall((ROOT / doc).read_text()) if tag == lang]


@pytest.mark.parametrize("doc", DOCS)
def test_cli_lines_parse(doc):
    lines = [line for body in blocks(doc, "sh") for line in body.splitlines()
             if line.startswith("chiralgate ")]
    assert lines
    parser = _build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"{doc}: {line!r} does not parse")


@pytest.mark.parametrize("doc", DOCS)
def test_yaml_blocks_validate(doc):
    configs = blocks(doc, "yaml")
    assert configs
    for body in configs:
        validate_config(yaml.safe_load(body))
