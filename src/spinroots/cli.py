"""Command-line front end: per-group pipelines and the full table check.

Commands print human-readable summaries; ``--json`` additionally writes the
exact machine-readable form.  Exit status: 0 on success, 1 when a
verification or table cell fails, the ``--json`` file cannot be written,
stdout cannot encode the output (sqrt, tau, sigma on an ASCII stdout) or
the reader of stdout has gone (a closed pipe, as in ``| head``), 2 on
usage errors.  A command imports ``spingroup`` and ``json`` if it uses
them, so ``roots`` and ``cartan`` load only ``coxeter`` and ``exactfield``.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import coxeter
from .coxeter import GROUPS

EXPECTED = {
    "a1x3": {"roots": 6, "order": 8, "spinors": 8, "binary": "Q",
             "rank4": "A1x4", "rank4_roots": 8, "pure_quat": True,
             "two_generators": True},
    "a3": {"roots": 12, "order": 24, "spinors": 24, "binary": "2T",
           "rank4": "D4", "rank4_roots": 24, "pure_quat": False,
           "two_generators": True},
    "b3": {"roots": 18, "order": 48, "spinors": 48, "binary": "2O",
           "rank4": "F4", "rank4_roots": 48, "pure_quat": True,
           "two_generators": True},
    "h3": {"roots": 30, "order": 120, "spinors": 120, "binary": "2I",
           "rank4": "H4", "rank4_roots": 120, "pure_quat": True,
           "two_generators": True},
}


class OutputError(Exception):
    """The ``--json`` destination could not be written."""


def _write_json(path: str, payload) -> None:
    import json
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise OutputError(
            f"cannot write {path}: {exc.strerror or exc}") from None


def _fmt_root(root) -> str:
    return "(" + ", ".join(str(c) for c in root) + ")"


def cmd_roots(args) -> int:
    simple = coxeter.simple_roots(args.group)
    rs = coxeter.orbit_closure(simple)
    cert = coxeter.verify_root_system(rs)
    print(f"group: {args.group}")
    print(f"roots: {len(rs)}")
    print(f"verified: {str(cert.passed).lower()}")
    for root in rs.roots:
        print(f"  {_fmt_root(root)}")
    if args.json:
        _write_json(args.json, rs.to_json())
    return 0 if cert.passed else 1


def cmd_spinors(args) -> int:
    from . import spingroup
    result = spingroup.run_pipeline(coxeter.simple_roots(args.group))
    ss = result.two_generator if args.from_two else result.spinors
    origin = " (from two generators)" if args.from_two else ""
    print(f"spinors{origin}: {len(ss)}")
    name = spingroup.catalog_match(ss)
    if name is None:
        print("catalog match: none")
    else:
        binary = spingroup.BINARY_NAME[name]
        print(f"catalog match: {name} (binary group {binary})")
    for q in ss.quaternions():
        print(f"  {q}")
    if args.json:
        _write_json(args.json, spingroup.export_json(result))
    return 0 if name is not None else 1


def cmd_versors(args) -> int:
    from . import spingroup
    result = spingroup.run_pipeline(coxeter.simple_roots(args.group))
    vg, census = result.versors, result.census
    print(f"group: {args.group}")
    print(f"unit versors: {len(vg)}")
    print(f"transformations: {census.transformations}")
    print(f"even: {census.even}  odd: {census.odd}")
    print(f"identity: {census.identity}")
    for order, count in sorted(census.rotations.items()):
        print(f"rotations of order {order}: {count}")
    print(f"reflections: {census.reflections}")
    print(f"rotoinversions: {census.rotoinversions}")
    present = "present" if census.central_inversion else "absent"
    print(f"central inversion: {present}")
    if args.json:
        _write_json(args.json, spingroup.export_json(result))
    return 0


def cmd_cartan(args) -> int:
    simple = coxeter.simple_roots(args.group)
    cm = coxeter.cartan_matrix(simple)
    print(f"group: {args.group}")
    width = max(len(str(v)) for row in cm.entries for v in row)
    for row in cm.entries:
        print("  [ " + "  ".join(str(v).rjust(width) for v in row) + " ]")
    print("pair orders: "
          + "  ".join(" ".join(str(o) for o in row) for row in cm.pair_orders))
    return 0


def build_report(presets: dict | None = None) -> dict:
    """Run all four pipelines and compare each cell against the table."""
    from . import spingroup
    rows = []
    for group in GROUPS:
        simple = presets[group] if presets else coxeter.simple_roots(group)
        try:
            res = spingroup.run_pipeline(simple)
        except (ValueError, AssertionError) as exc:
            rows.append({"group": group, "error": str(exc),
                         "failed_cells": [f"{group}.pipeline"]})
            continue
        name = spingroup.catalog_match(res.spinors)
        row = {
            "group": group,
            "roots": len(res.root_system),
            "order": res.order,
            "spinors": len(res.spinors),
            "binary": spingroup.BINARY_NAME.get(name, "unknown"),
            "rank4": res.rank4.group,
            "rank4_roots": len(res.rank4),
            "pure_quat": res.pure.holds,
            "two_generators": res.two_generator_match,
        }
        row["failed_cells"] = sorted(
            f"{group}.{key}" for key, want in EXPECTED[group].items()
            if row[key] != want)
        rows.append(row)
    return {"rows": rows,
            "pass": all(not r["failed_cells"] for r in rows)}


def cmd_verify_table(args) -> int:
    report = build_report()
    header = (f"{'group':6} {'roots':>5} {'|W|':>4} {'spinors':>7} "
              f"{'binary':>6} {'rank4':>5} {'roots4':>6} {'pure':>5} "
              f"{'2-gen':>5}  status")
    print(header)
    for row in report["rows"]:
        if "error" in row:
            print(f"{row['group']:6} pipeline error: {row['error']}")
            continue
        status = "ok" if not row["failed_cells"] else "FAIL"
        print(f"{row['group']:6} {row['roots']:>5} {row['order']:>4} "
              f"{row['spinors']:>7} {row['binary']:>6} {row['rank4']:>5} "
              f"{row['rank4_roots']:>6} {str(row['pure_quat']).lower():>5} "
              f"{str(row['two_generators']).lower():>5}  {status}")
    if report["pass"]:
        print("table verified: all rows match")
    else:
        failed = [cell for row in report["rows"]
                  for cell in row["failed_cells"]]
        print(f"table verification FAILED at: {', '.join(failed)}")
    if args.json:
        _write_json(args.json, report)
    return 0 if report["pass"] else 1


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinroots",
        description="rank-3 Coxeter root systems and the rank-4 groups "
                    "their spinors induce")
    sub = parser.add_subparsers(dest="command", required=True)

    p_roots = sub.add_parser("roots", help="orbit closure and verification")
    p_roots.add_argument("group", choices=GROUPS)
    p_roots.add_argument("--json", metavar="PATH")
    p_roots.set_defaults(func=cmd_roots)

    p_spin = sub.add_parser("spinors", help="binary polyhedral spinor group")
    p_spin.add_argument("group", choices=GROUPS)
    p_spin.add_argument("--from-two", action="store_true",
                        help="generate from the two spinor generators only")
    p_spin.add_argument("--json", metavar="PATH")
    p_spin.set_defaults(func=cmd_spinors)

    p_vers = sub.add_parser("versors", help="versor group census")
    p_vers.add_argument("group", choices=GROUPS)
    p_vers.add_argument("--json", metavar="PATH")
    p_vers.set_defaults(func=cmd_versors)

    p_cart = sub.add_parser("cartan", help="exact Cartan matrix")
    p_cart.add_argument("group", choices=GROUPS)
    p_cart.set_defaults(func=cmd_cartan)

    p_table = sub.add_parser("verify-table",
                             help="reproduce the full correspondence table")
    p_table.add_argument("--json", metavar="PATH")
    p_table.set_defaults(func=cmd_verify_table)

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except OutputError as exc:
        print(f"spinroots: {exc}", file=sys.stderr)
        return 1
    except UnicodeEncodeError as exc:
        print(f"spinroots: cannot write to stdout: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Python's flush at exit would fail again on the closed pipe.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
