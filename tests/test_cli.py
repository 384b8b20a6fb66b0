"""CLI commands, JSON output, exit codes, determinism."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import spinroots
from spinroots import cli, coxeter, spingroup
from spinroots.coxeter import RootSystem, SimpleRoots


def run(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def _src() -> str:
    """The directory that holds the imported spinroots package."""
    return str(Path(spinroots.__file__).resolve().parent.parent)


def test_roots_h3(capsys):
    code, out = run(capsys, "roots", "h3")
    assert code == 0
    assert "roots: 30" in out
    assert "verified: true" in out


def test_roots_json_file(tmp_path, capsys):
    path = tmp_path / "a3.json"
    code, _ = run(capsys, "roots", "a3", "--json", str(path))
    assert code == 0
    data = json.loads(path.read_text())
    assert len(data["roots"]) == 12
    back = RootSystem.from_json(data)
    assert back.group == "a3"
    assert len(back.roots) == 12


def test_unknown_group_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["roots", "xyz"])
    assert exc.value.code == 2


def test_missing_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def test_spinors_b3(capsys):
    code, out = run(capsys, "spinors", "b3")
    assert code == 0
    assert "spinors: 48" in out
    assert "hurwitz+duals" in out
    assert "2O" in out


def test_spinors_from_two(capsys):
    code, out = run(capsys, "spinors", "h3", "--from-two")
    assert code == 0
    assert "spinors (from two generators): 120" in out


def test_spinors_a1x3(capsys):
    code, out = run(capsys, "spinors", "a1x3")
    assert code == 0
    assert "spinors: 8" in out
    assert "lipschitz" in out


def test_versors_h3(capsys):
    code, out = run(capsys, "versors", "h3")
    assert code == 0
    assert "rotoinversions: 45" in out
    assert "reflections: 15" in out
    assert "central inversion: present" in out
    assert "odd: 60" in out


def test_versors_a3(capsys):
    code, out = run(capsys, "versors", "a3")
    assert code == 0
    assert "central inversion: absent" in out


def test_versors_b3(capsys):
    code, out = run(capsys, "versors", "b3")
    assert code == 0
    assert "transformations: 48" in out


def test_cartan_a1x3(capsys):
    code, out = run(capsys, "cartan", "a1x3")
    assert code == 0
    rows = [line for line in out.splitlines() if line.startswith("  [")]
    assert rows == ["  [ 2  0  0 ]", "  [ 0  2  0 ]", "  [ 0  0  2 ]"]


def test_cartan_h3_contains_minus_tau(capsys):
    code, out = run(capsys, "cartan", "h3")
    assert code == 0
    assert "-τ" in out


def test_cartan_b3_has_sqrt2_entry(capsys):
    # unit-length simple roots make the off-diagonal -sqrt2, not an integer
    code, out = run(capsys, "cartan", "b3")
    assert code == 0
    assert "-√2" in out


def test_verify_table(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out = run(capsys, "verify-table", "--json", str(path))
    assert code == 0
    assert "table verified: all rows match" in out
    assert out.count(" ok") == 4
    report = json.loads(path.read_text())
    assert report["pass"] is True
    by_group = {row["group"]: row for row in report["rows"]}
    assert by_group["h3"] == {
        "group": "h3", "roots": 30, "order": 120, "spinors": 120,
        "binary": "2I", "rank4": "H4", "rank4_roots": 120,
        "pure_quat": True, "two_generators": True, "failed_cells": [],
    }
    assert by_group["a3"]["pure_quat"] is False
    assert by_group["b3"]["rank4_roots"] == 48


def test_json_outputs_are_deterministic(tmp_path, capsys):
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    run(capsys, "roots", "h3", "--json", str(p1))
    run(capsys, "roots", "h3", "--json", str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    q1, q2 = tmp_path / "t1.json", tmp_path / "t2.json"
    run(capsys, "verify-table", "--json", str(q1))
    run(capsys, "verify-table", "--json", str(q2))
    assert q1.read_bytes() == q2.read_bytes()


def test_spinors_json_export(tmp_path, capsys):
    path = tmp_path / "spin.json"
    code, _ = run(capsys, "spinors", "a1x3", "--json", str(path))
    assert code == 0
    data = json.loads(path.read_text())
    assert data["group"] == "a1x3"
    assert len(data["spinors"]) == 8
    assert data["rank4"]["group"] == "A1x4"


def test_verify_table_exit_code_on_mismatch(monkeypatch, capsys):
    wrong = {g: dict(cells) for g, cells in cli.EXPECTED.items()}
    wrong["h3"]["roots"] = 31
    monkeypatch.setattr(cli, "EXPECTED", wrong)
    code, out = run(capsys, "verify-table")
    assert code == 1
    assert "h3.roots" in out


def test_verify_table_prints_a_pipeline_error_row(monkeypatch, capsys):
    original = spingroup.run_pipeline

    def failing(simple):
        if simple.group == "b3":
            raise ValueError("b3 broke")
        return original(simple)

    monkeypatch.setattr(spingroup, "run_pipeline", failing)
    code, out = run(capsys, "verify-table")
    assert code == 1
    assert "b3     pipeline error: b3 broke" in out.splitlines()
    assert out.splitlines()[-1] == \
        "table verification FAILED at: b3.pipeline"


def test_spinors_without_a_catalog_match(monkeypatch, capsys):
    # A3 turned by the quaternion (1, -2, 4, 5): still 24 spinors, but not
    # the literal Hurwitz units
    from helpers import turn
    a3 = coxeter.simple_roots("a3")
    turned = SimpleRoots("a3", tuple(turn((1, -2, 4, 5), r)
                                     for r in a3.roots))
    monkeypatch.setattr(coxeter, "simple_roots", lambda group: turned)
    code, out = run(capsys, "spinors", "a3")
    assert code == 1
    lines = out.splitlines()
    assert lines[:2] == ["spinors: 24", "catalog match: none"]
    assert len(lines) == 26


def test_negative_control_names_failing_cells():
    # swapping the b3 presets in under the a1x3 label must fail that row
    presets = {g: coxeter.simple_roots(g) for g in coxeter.GROUPS}
    presets["a1x3"] = SimpleRoots("a1x3", coxeter.simple_roots("b3").roots)
    report = cli.build_report(presets)
    assert report["pass"] is False
    by_group = {row["group"]: row for row in report["rows"]}
    assert "a1x3.roots" in by_group["a1x3"]["failed_cells"]
    assert "a1x3.binary" in by_group["a1x3"]["failed_cells"]
    for g in ("a3", "b3", "h3"):
        assert by_group[g]["failed_cells"] == []


def test_negative_control_broken_preset_reports_error():
    from spinroots.exactfield import FieldScalar
    presets = {g: coxeter.simple_roots(g) for g in coxeter.GROUPS}
    zero = (FieldScalar(0), FieldScalar(0), FieldScalar(0))
    presets["a3"] = SimpleRoots("a3", (coxeter.simple_roots("a3").roots[0],
                                       zero,
                                       coxeter.simple_roots("a3").roots[2]))
    report = cli.build_report(presets)
    assert report["pass"] is False
    by_group = {row["group"]: row for row in report["rows"]}
    assert "error" in by_group["a3"]
    assert by_group["a3"]["failed_cells"] == ["a3.pipeline"]


def test_json_to_unwritable_path_is_a_clean_error(tmp_path, capsys):
    path = tmp_path / "missing" / "x.json"
    code = cli.main(["roots", "a1x3", "--json", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert "roots: 6" in captured.out
    assert captured.err.splitlines() == [
        f"spinroots: cannot write {path}: No such file or directory"]


def test_json_to_unwritable_path_exit_status(tmp_path):
    env = dict(os.environ, PYTHONPATH=_src())
    proc = subprocess.run(
        [sys.executable, "-m", "spinroots.cli", "roots", "a1x3", "--json",
         str(tmp_path / "missing" / "x.json")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1


@pytest.mark.parametrize("argv", [("spinors", "a3"),
                                  ("spinors", "a3", "--from-two"),
                                  ("versors", "a3")])
def test_json_export_runs_the_pipeline_once(argv, monkeypatch, tmp_path,
                                            capsys, pipelines):
    plain_code, plain_out = run(capsys, *argv)
    calls = Counter()

    def counted(name):
        original = getattr(spingroup, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in ("run_pipeline", "generate_versor_group",
                 "generate_from_two", "catalog_match"):
        monkeypatch.setattr(spingroup, name, counted(name))
    path = tmp_path / "out.json"
    code, out = run(capsys, *argv, "--json", str(path))
    # only the spinors command names a catalog, once, for the set it prints
    matches = {"catalog_match": 1} if argv[0] == "spinors" else {}
    assert calls == {"run_pipeline": 1, "generate_versor_group": 1,
                     "generate_from_two": 1, **matches}
    assert (code, out) == (plain_code, plain_out)
    want = json.dumps(spingroup.export_json(pipelines["a3"]), indent=2,
                      sort_keys=True) + "\n"
    assert path.read_text(encoding="utf-8") == want


def _fresh_run(body: str, *args: str) -> tuple[int, list[str]]:
    """Exit status and loaded modules of a fresh, isolated interpreter
    that finds the package in the sources and runs ``body``, which sets
    ``status``; -B, since -I ignores PYTHONDONTWRITEBYTECODE, so the run
    leaves no __pycache__ in src/."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); " + body
            + "; print(*sorted(sys.modules), file=sys.stderr); "
            "sys.exit(status)")
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", code, _src(), *args],
        capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stderr.split()


def test_verify_table_does_not_load_the_clifford_algebra(tmp_path):
    # each command loads only what it runs.  The pipeline is quaternion
    # code: the whole table, with the H3 roots written as JSON, never
    # imports the Clifford oracle, nor dataclasses and the inspect it
    # pulls in, nor fractions and its decimal, as the field formats its
    # own integer coordinates.  The package imports none of its modules,
    # and roots and cartan load no spinor code, nor json without --json.
    path = tmp_path / "h3.json"
    status, loaded = _fresh_run(
        "from spinroots.cli import main; "
        "status = main(['verify-table']) "
        "or main(['roots', 'h3', '--json', sys.argv[2]])", str(path))
    assert status == 0
    assert "spinroots.spingroup" in loaded
    assert "spinroots.clifford" not in loaded
    for module in ("dataclasses", "inspect", "fractions", "decimal"):
        assert module not in loaded
    index = Path(__file__).resolve().parent / "golden" / "index.json"
    recorded = next(e["json_sha256"] for e in json.loads(index.read_text())
                    if e["json"] and e["argv"] == ["roots", "h3"])
    assert hashlib.sha256(path.read_bytes()).hexdigest() == recorded

    def package(modules):
        return [m for m in modules if m.partition(".")[0] == "spinroots"]

    status, loaded = _fresh_run("import spinroots; status = 0")
    assert status == 0 and package(loaded) == ["spinroots"]
    for command in ("roots", "cartan"):
        status, loaded = _fresh_run(
            "from spinroots.cli import main; status = main(sys.argv[2:])",
            command, "h3")
        assert status == 0
        assert package(loaded) == ["spinroots", "spinroots.cli",
                                   "spinroots.coxeter",
                                   "spinroots.exactfield"]
        assert "json" not in loaded


def test_no_module_uses_dataclasses():
    # the records are slotted classes, so importing the package compiles
    # no generated code
    package = Path(spinroots.__file__).parent
    assert [p.name for p in sorted(package.glob("*.py"))
            if "dataclass" in p.read_text(encoding="utf-8")] == []


@pytest.mark.parametrize("flags", [["-u"], []])
def test_closed_stdout_pipe_is_a_clean_exit(flags):
    # stdout is a pipe whose read end is already closed, as when the
    # reader (head -n 1) has gone; -u makes the first print fail, buffered
    # output fails at the flush
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = _src()
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "spinroots.cli", "roots", "h3"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
            timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""


@pytest.mark.parametrize("encoding", ["ascii", "cp1252"])
def test_stdout_that_cannot_encode_the_output_is_a_clean_error(encoding):
    # the H3 roots print sqrt2, tau and sigma signs, which neither
    # encoding holds: one line on stderr, no traceback.  The A1^3 roots
    # are plain integers and print as before
    env = dict(os.environ, PYTHONPATH=_src(), PYTHONIOENCODING=encoding)

    def roots(group):
        return subprocess.run(
            [sys.executable, "-m", "spinroots.cli", "roots", group],
            capture_output=True, env=env, timeout=120)
    h3, a1x3 = roots("h3"), roots("a1x3")
    assert h3.returncode == 1
    assert b"Traceback" not in h3.stderr
    assert len(h3.stderr.splitlines()) == 1
    assert h3.stderr.startswith(b"spinroots: cannot write to stdout: ")
    assert (a1x3.returncode, a1x3.stderr) == (0, b"")
    golden = Path(__file__).resolve().parent / "golden" / "roots-a1x3.txt"
    assert a1x3.stdout.decode(encoding) == golden.read_text(encoding="utf-8")
