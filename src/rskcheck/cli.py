"""Command-line interface: single binary, stable text/JSON output.

Exit codes: 0 on success (and on verification passes), 1 when any emitted
verification report fails or a membership check is negative, 2 on usage,
parse, or range errors and when a write to stdout or the report file fails,
as on a full disk (or another system call, such as a fork under a process
limit), 3 when a pool worker process dies, 130 when interrupted
(Ctrl-C), 141 when the reader of stdout has closed it, as in
`rskcheck verify ... | head -1`; the last is silent. On a failed write, 3
and 130, `verify` keeps the reports that finished, on stdout and in its
report file; after a failed write nothing more goes to stdout. A usage
error is reported as one, exit 2 and its one error line, even when its
`--json` error object cannot be written to stdout, unless the reader of
stdout has closed it: that is 141 and silent, as above.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import enumeration
from .evacuation import delta, evacuation_trace
from .permutations import Permutation
from .reverse_maps import phi, satisfies_first_row_property, theta
from .rsk import rsk
from .tableaux import StandardYoungTableau

USAGE_ERROR = 2
CHECK_FAILED = 1
WORKER_DIED = 3
INTERRUPTED = 130
PIPE_CLOSED = 141  # 128 + SIGPIPE, as 130 is 128 + SIGINT


def _emit(payload: dict, as_json: bool, text: str) -> None:
    if as_json:
        print(json.dumps(payload, separators=(",", ":")))
    else:
        print(text)


def _parse_permutation(tokens: list[str]) -> Permutation:
    return Permutation.parse(" ".join(tokens))


def _read_tableau_source(source: str) -> object:
    """Inline JSON (sniffed by a leading bracket or brace) or a file path."""
    text = source.strip()
    if not text.startswith(("[", "{")):
        path = os.path.normpath(text)  # as a path: "" is ".", "t.json/" is "t.json"
        if not os.path.exists(path):
            raise ValueError(f"tableau file not found: {text}")
        try:
            with open(path, encoding="utf-8") as handle:
                text = handle.read().strip()
        except OSError as exc:
            raise ValueError(f"cannot read tableau file {text}: {exc.strerror}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid tableau JSON: {exc}") from None
    except RecursionError:
        raise ValueError("invalid tableau JSON: nested too deeply") from None
    if isinstance(data, dict):
        if "rows" not in data:
            raise ValueError('tableau JSON object must have a "rows" key')
        data = data["rows"]
    if not isinstance(data, list):
        raise ValueError("tableau JSON must be a list of rows")
    for i, row in enumerate(data, start=1):
        if not isinstance(row, list):
            raise ValueError(f"tableau row {i} must be a JSON list, got {json.dumps(row)}")
    return data


def _side_by_side(left_title: str, left: str, right_title: str, right: str) -> str:
    left_lines = [left_title] + left.splitlines()
    right_lines = [right_title] + right.splitlines()
    width = max(len(line) for line in left_lines) + 4
    lines = []
    for i in range(max(len(left_lines), len(right_lines))):
        l = left_lines[i] if i < len(left_lines) else ""
        r = right_lines[i] if i < len(right_lines) else ""
        lines.append((l.ljust(width) + r).rstrip())
    return "\n".join(lines)


def _cmd_rsk(args: argparse.Namespace) -> int:
    w = _parse_permutation(args.perm)
    pair = rsk(w)
    payload = {"P": pair.p, "Q": pair.q}
    _emit(payload, args.json, _side_by_side("P:", pair.p.ascii(), "Q:", pair.q.ascii()))
    return 0


def _cmd_evac(args: argparse.Namespace) -> int:
    trace = evacuation_trace(StandardYoungTableau(_read_tableau_source(args.tableau)))
    payload = {
        "result": trace.evacuation,
        "vacated_cells": trace.vacated_cells,
    }
    text = trace.evacuation.ascii() + "\nvacated: " + " ".join(
        f"({cell.row},{cell.col})" for cell in trace.vacated_cells
    )
    _emit(payload, args.json, text)
    return 0


def _cmd_delta(args: argparse.Namespace) -> int:
    result, vacated = delta(_read_tableau_source(args.tableau))
    payload = {"result": result, "vacated_cell": vacated}
    text = "\n".join(" ".join(map(str, row)) for row in result)
    text += f"\nvacated: ({vacated.row},{vacated.col})"
    _emit(payload, args.json, text)
    return 0


def _cmd_phi(args: argparse.Namespace) -> int:
    w = _parse_permutation(args.perm)
    result = phi(w, args.a, args.b)
    _emit({"result": result}, args.json, str(result))
    return 0


def _cmd_theta(args: argparse.Namespace) -> int:
    w = _parse_permutation(args.perm)
    result = theta(w)
    _emit({"result": result}, args.json, str(result))
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    w = _parse_permutation(args.perm)
    q = rsk(w).q
    q_reverse = rsk(w.reverse()).q
    in_r = q == q_reverse
    in_h = q.shape.is_symmetric_hook()
    first_row = satisfies_first_row_property(q)
    characterized = in_h and first_row
    agrees = in_r == characterized
    payload = {
        "permutation": w,
        "in_R": in_r,
        "in_H": in_h,
        "Q": q,
        "Q_of_reverse": q_reverse,
        "symmetric_hook": in_h,
        "first_row_property": first_row,
        "characterization": characterized,
        "agrees": agrees,
    }
    text_lines = [
        f"permutation: {w}",
        f"same recording tableau as reverse (definition): {in_r}",
        f"symmetric hook recording shape: {in_h} (in_H: {in_h})",
        f"first-row property: {first_row}",
        f"characterization verdict: {characterized}",
        f"definition and characterization agree: {agrees}",
        "Q:",
        q.ascii(),
        "Q of reverse:",
        q_reverse.ascii(),
    ]
    _emit(payload, args.json, "\n".join(text_lines))
    return 0 if (in_r and agrees) else CHECK_FAILED


def _cmd_enumerate(args: argparse.Namespace) -> int:
    which = args.set
    n = args.n
    if args.list:
        members = enumeration.list_set(
            which, n, workers=args.workers, list_max=args.list_max, max_n=args.max_n
        )
        if which == "M":
            text = "\n\n".join(t.ascii() for t in members)
        else:
            text = "\n".join(map(str, members))
        payload: dict = {"set": which, "n": n, "count": len(members), "members": members}
    else:
        if which == "R":
            count = enumeration.count_R(n, workers=args.workers, max_n=args.max_n)
            formula = enumeration.count_R_formula(n)
        elif which == "H":
            count = enumeration.count_H(n, workers=args.workers, max_n=args.max_n)
            formula = None
        else:
            count = enumeration.count_M(n, max_n=args.max_n)
            formula = enumeration.count_M_formula(n)
        payload = {"set": which, "n": n, "count": count}
        text = f"|{which}_{n}| = {count}"
        if formula is not None:
            payload["formula"] = formula
            text += f" (formula: {formula})"
    if which == "M" and n % 2 == 0:
        note = "no symmetric hook shape exists for even sizes; the set is empty"
        payload["note"] = note
        text = (text + "\n" if text else "") + f"note: {note}"
    _emit(payload, args.json, text)
    return 0


def _format_report(report: enumeration.VerificationReport) -> str:
    status = "PASS" if report.passed else "FAIL"
    formula = "-" if report.formula is None else str(report.formula)
    line = (
        f"{status} {report.check:<20} n={report.n:<3} "
        f"observed={report.observed} expected={report.expected} formula={formula} "
        f"[{report.elapsed_ms} ms, workers={report.workers}]"
    )
    if report.detail and not report.passed:
        line += f"\n     {report.detail}"
    return line


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.n_max < 1:
        raise ValueError(f"--n-max must be at least 1, got {args.n_max}")
    chosen = [suite for suite in enumeration.SUITES if getattr(args, suite)]
    plan = enumeration.verify(
        chosen if chosen and not args.all else enumeration.SUITES,
        args.n_max,
        workers=args.workers,
        max_n=args.max_n,
    )
    try:
        out = open(args.out, "a", encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot open report file {args.out}: {exc.strerror}") from None
    passed = True
    # Leaving the plan early, on an error or a closed stdout, cancels its queue.
    with plan as claims, out:
        for claim in claims:
            report = claim()
            out.write(report.to_json() + "\n")
            out.flush()
            print(report.to_json() if args.json else _format_report(report), flush=True)
            passed = passed and report.passed
    return 0 if passed else CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rskcheck",
        description=(
            "Row-insertion tableau pairs, evacuation, endpoint lifts, and "
            "exhaustive verification of reverse-stable recording tableaux."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p: argparse.ArgumentParser) -> None:
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")

    p_rsk = sub.add_parser("rsk", help="insertion/recording tableau pair of a permutation")
    p_rsk.add_argument("perm", nargs="+", help='permutation, e.g. "52314" or "5 2 3 1 4"')
    add_json(p_rsk)
    p_rsk.set_defaults(func=_cmd_rsk)

    p_evac = sub.add_parser("evac", help="evacuation tableau and vacating trace")
    p_evac.add_argument("tableau", help='tableau JSON (e.g. \'[[1,3,5],[2],[4]]\') or a file path')
    add_json(p_evac)
    p_evac.set_defaults(func=_cmd_evac)

    p_delta = sub.add_parser("delta", help="erase the minimal entry and slide the hole out")
    p_delta.add_argument("tableau", help="tableau JSON or a file path")
    add_json(p_delta)
    p_delta.set_defaults(func=_cmd_delta)

    p_phi = sub.add_parser("phi", help="lift a permutation two sizes up by endpoints a and b")
    p_phi.add_argument("--a", type=int, required=True, help="new first entry")
    p_phi.add_argument("--b", type=int, required=True, help="new last entry")
    p_phi.add_argument("perm", nargs="+")
    add_json(p_phi)
    p_phi.set_defaults(func=_cmd_phi)

    p_theta = sub.add_parser("theta", help="drop the endpoints and close the value gaps")
    p_theta.add_argument("perm", nargs="+")
    add_json(p_theta)
    p_theta.set_defaults(func=_cmd_theta)

    p_check = sub.add_parser(
        "check",
        help="report reverse-stability of the recording tableau, both by "
        "definition and by the shape characterization",
    )
    p_check.add_argument("perm", nargs="+")
    add_json(p_check)
    p_check.set_defaults(func=_cmd_check)

    p_enum = sub.add_parser("enumerate", help="count or list the R/H/M sets")
    p_enum.add_argument("--set", choices=("R", "H", "M"), required=True)
    p_enum.add_argument("--n", type=int, required=True)
    p_enum.add_argument("--list", action="store_true", help="list members instead of counting")
    p_enum.add_argument("--workers", type=int, default=1)
    p_enum.add_argument("--max-n", type=int, default=enumeration.DEFAULT_MAX_COUNT_N)
    p_enum.add_argument("--list-max", type=int, default=enumeration.DEFAULT_MAX_LIST_N)
    add_json(p_enum)
    p_enum.set_defaults(func=_cmd_enumerate)

    p_verify = sub.add_parser("verify", help="run exhaustive verification sweeps")
    for suite in enumeration.SUITES:
        about = "exhaustive counts vs the closed form" if suite == "count" else None
        p_verify.add_argument("--" + suite.replace("_", "-"), action="store_true", help=about)
    p_verify.add_argument("--all", action="store_true", help="run every suite (default)")
    p_verify.add_argument("--n-max", dest="n_max", type=int, required=True)
    p_verify.add_argument("--workers", type=int, default=1)
    p_verify.add_argument("--max-n", type=int, default=enumeration.DEFAULT_MAX_COUNT_N)
    p_verify.add_argument("--out", default="verification.jsonl", help="JSON-lines report file (appended)")
    add_json(p_verify)
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def _settle_stdout() -> None:
    """Flush stdout. A buffered stdout keeps what a failed write left, so
    its flush fails again; then fd 1 is pointed at the null device, and the
    flush at exit has nothing to fail on."""
    try:
        sys.stdout.flush()
    except OSError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        try:
            if hasattr(args, "workers"):
                enumeration._check_workers(args.workers)
            return args.func(args)
        except ValueError as exc:
            if getattr(args, "json", False):
                try:
                    print(json.dumps({"error": str(exc)}, separators=(",", ":")))
                    sys.stdout.flush()
                except BrokenPipeError:
                    raise
                except OSError:
                    # A usage error is the one error reported, even if its
                    # JSON cannot be written; a closed stdout is still 141.
                    _settle_stdout()
            print(f"error: {exc}", file=sys.stderr)
            return USAGE_ERROR
        except ChildProcessError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return WORKER_DIED
        except KeyboardInterrupt:
            print("error: interrupted", file=sys.stderr)
            return INTERRUPTED
        finally:
            # Output for a closed stdout fails here, not at interpreter exit.
            sys.stdout.flush()
    except BrokenPipeError:
        _settle_stdout()
        return PIPE_CLOSED
    except OSError as exc:
        # A failed write to stdout or the report file, as on a full disk, or
        # another failed system call. ChildProcessError, an OSError too, was
        # handled above.
        _settle_stdout()
        print(f"error: {exc.strerror or exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
