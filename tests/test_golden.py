"""Golden outputs: every CLI command on the four presets, byte for byte.

``tests/golden/index.json`` lists each run: its arguments, exit status,
the file under ``tests/golden/`` that holds its stdout, and for ``--json``
runs the SHA-256 of the JSON file written (the spinor and versor files are
too large to keep).  The test replays each run in-process through
``cli.main`` and compares.  Regenerate the files, only when an output is
meant to change, with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from spinroots import cli
from spinroots.coxeter import GROUPS

GOLDEN = Path(__file__).resolve().parent / "golden"
INDEX = GOLDEN / "index.json"


def _runs():
    """(argv, writes --json) for every recorded run."""
    plain = [["verify-table"]]
    for g in GROUPS:
        plain += [["roots", g], ["spinors", g], ["versors", g],
                  ["spinors", g, "--from-two"], ["cartan", g]]
    with_json = [["verify-table"]] + [[cmd, g] for cmd in
                                      ("roots", "spinors", "versors")
                                      for g in GROUPS]
    return [(argv, False) for argv in plain] + \
        [(argv, True) for argv in with_json]


def _replay(argv, json_dir):
    """(exit status, stdout, SHA-256 of the --json file or None)."""
    path = Path(json_dir) / "out.json" if json_dir else None
    args = argv + ["--json", str(path)] if path else argv
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(args)
    digest = (hashlib.sha256(path.read_bytes()).hexdigest()
              if path else None)
    return code, out.getvalue(), digest


def _recorded(argv, writes_json):
    """The index entry of one run."""
    entries = json.loads(INDEX.read_text(encoding="utf-8"))
    return next(e for e in entries
                if (e["argv"], e["json"]) == (argv, writes_json))


def regenerate():
    """Rewrite the golden files from the current program."""
    GOLDEN.mkdir(exist_ok=True)
    for old in GOLDEN.glob("*.txt"):
        old.unlink()
    entries, files = [], {}
    for argv, writes_json in _runs():
        with tempfile.TemporaryDirectory() as tmp:
            code, out, digest = _replay(argv, tmp if writes_json else None)
        name = files.get(out)
        if name is None:
            name = "-".join(a.lstrip("-") for a in argv) + ".txt"
            (GOLDEN / name).write_text(out, encoding="utf-8")
            files[out] = name
        entry = {"argv": argv, "json": writes_json, "exit": code,
                 "stdout": name}
        if writes_json:
            entry["json_sha256"] = digest
        entries.append(entry)
    INDEX.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")


def test_index_covers_every_run():
    entries = json.loads(INDEX.read_text(encoding="utf-8"))
    assert [(e["argv"], e["json"]) for e in entries] == _runs()


@pytest.mark.parametrize(
    "argv, writes_json", _runs(),
    ids=lambda v: " ".join(v) if isinstance(v, list) else
    ("--json" if v else "plain"))
def test_output_matches_golden(argv, writes_json, tmp_path):
    entry = _recorded(argv, writes_json)
    code, out, digest = _replay(argv, tmp_path if writes_json else None)
    assert code == entry["exit"]
    assert out == (GOLDEN / entry["stdout"]).read_text(encoding="utf-8")
    assert digest == entry.get("json_sha256")


if __name__ == "__main__":
    regenerate()
