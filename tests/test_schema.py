"""Every kind of report validates against the published JSON schema."""

from __future__ import annotations

import json
from importlib.resources import files

import pytest

from uniqpoly import cli

jsonschema = pytest.importorskip("jsonschema")

SCHEMA = json.loads(
    files("uniqpoly").joinpath("schema/report.schema.json").read_text())


@pytest.mark.parametrize("argv", [
    ["classify", "X^4+X+1"],
    ["classify", "2X^5-5X^4+4X^3-X^2"],
    ["classify", "X^^2"],
    ["curve", "X^3-3X", "--c", "2"],
    ["curve", "X^4+X+1"],
    ["witness", "X^6+X^3"],
    ["forms", "scaled", "3,1", "--pairing", "0:1"],
    ["corollary", "0", "5", "2", "1", "1"],
    ["selftest", "--fast"],
])
def test_report_matches_schema(capsys, argv):
    cli.main(argv)
    jsonschema.validate(json.loads(capsys.readouterr().out), SCHEMA)


def test_batch_lines_match_schema(capsys, tmp_path):
    batch = tmp_path / "polys.txt"
    batch.write_text("X^5+X^2\nX^^2\nX^65\n")
    cli.main(["classify", "--batch", str(batch)])
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    for line in lines:
        jsonschema.validate(json.loads(line), SCHEMA)
