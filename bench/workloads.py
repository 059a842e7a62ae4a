"""The three workloads: what each CLI call is, and how its output is checked.

Every expected answer comes from `reference`, never from a saved copy of
the program's output. One verification report (sweeps) or one query call
counts as one attempted operation.
"""

from __future__ import annotations

import json
import random
from math import factorial

import reference as ref

# Each sweep workload: the suites of its one verify call, and the
# (check, n) pairs that call must report.
SWEEPS = {
    "count-sweep": (["--count", "--n-max", "9"], [("count_R", n) for n in range(1, 10)]),
    "suite-mix": (
        ["--all", "--n-max", "8"],
        [("count_R", n) for n in range(1, 9)]
        + [("characterization", n) for n in range(1, 9)]
        + [("symmetry_relations", n) for n in range(1, 8)]
        + [("phi_theta", n) for n in range(1, 7)]
        + [("r_transport", n) for n in range(1, 7)],
    ),
}


def perms_visited(check: str, n: int) -> int:
    """Permutations a report's sweep visits: phi_theta lifts S_n and scans
    S_(n+2); r_transport scans S_(n+2); the rest scan S_n."""
    if check == "phi_theta":
        return factorial(n) + factorial(n + 2)
    if check == "r_transport":
        return factorial(n + 2)
    return factorial(n)


def check_sweep(
    pairs: list[tuple[str, int]], workers: int, rc: int, stdout: str, out_text: str
) -> int:
    """Number of expected reports that are missing, wrong or not passed.

    A call that exits non-zero, or whose --out file does not hold exactly
    the printed reports, fails every one of its reports.
    """
    lines = stdout.splitlines()
    if rc != 0 or out_text.splitlines() != lines:
        return len(pairs)
    seen: dict[tuple[str, int], list[dict]] = {}
    for line in lines:
        try:
            report = json.loads(line)
            seen.setdefault((report["check"], report["n"]), []).append(report)
        except (ValueError, KeyError, TypeError):
            return len(pairs)
    failed = 0
    for check, n in pairs:
        found = seen.pop((check, n), [])
        if len(found) != 1 or not _report_ok(found[0], workers):
            failed += 1
    return min(len(pairs), failed + sum(len(extra) for extra in seen.values()))


def _report_ok(report: dict, workers: int) -> bool:
    if report.get("passed") is not True or report.get("workers") != workers:
        return False
    if report["check"] == "count_R":
        want = ref.count_R(report["n"])
        return report.get("observed") == report.get("expected") == report.get("formula") == want
    return report.get("observed") is True and report.get("expected") is True and report.get("formula") is None


# ---------------------------------------------------------------------------
# queries

QUERIES_PER_ROUND = 100
WELL_FORMED_MIX = ["rsk"] * 15 + ["check"] * 15 + ["evac", "delta", "phi", "theta", "enumerate"] * 12


def make_queries(seed: int) -> list[dict]:
    """One round of seeded one-shot calls: 90 well formed, 10 malformed."""
    rng = random.Random(seed)
    malformed = ["duplicate", "out-of-range", "column-order", "a=b"] * 2
    malformed += rng.sample(["duplicate", "out-of-range", "column-order", "a=b"], 2)
    queries = [_well_formed(rng, cmd) for cmd in WELL_FORMED_MIX]
    queries += [make_malformed(rng, kind) for kind in malformed]
    rng.shuffle(queries)
    assert len(queries) == QUERIES_PER_ROUND
    return queries


def random_perm(rng: random.Random, n: int) -> list[int]:
    w = list(range(1, n + 1))
    rng.shuffle(w)
    return w


def _perm_args(rng: random.Random, w: list[int]) -> list[str]:
    """Compact digits (n <= 9) or spaced tokens, half and half."""
    if len(w) <= 9 and rng.random() < 0.5:
        return ["".join(map(str, w))]
    return [str(v) for v in w]


def _member(rng: random.Random, n: int) -> list[int]:
    """A uniform member of R_n, by rejection."""
    while True:
        w = random_perm(rng, n)
        if ref.in_R(w):
            return w


def _tableau(rng: random.Random) -> ref.Rows:
    return ref.insert(random_perm(rng, rng.randint(1, 20)))[0]


def _well_formed(rng: random.Random, cmd: str) -> dict:
    q: dict = {"cmd": cmd, "malformed": False}
    if cmd in ("rsk", "check", "theta"):
        q["perm"] = random_perm(rng, rng.randint(5, 20))
        if cmd == "check" and rng.random() < 0.5:
            q["perm"] = _member(rng, rng.choice((5, 7, 9)))
        q["argv"] = [cmd, *_perm_args(rng, q["perm"])]
    elif cmd == "phi":
        q["perm"] = random_perm(rng, rng.randint(5, 18))
        q["a"], q["b"] = rng.sample(range(1, len(q["perm"]) + 3), 2)
        q["argv"] = ["phi", "--a", str(q["a"]), "--b", str(q["b"]), *_perm_args(rng, q["perm"])]
    elif cmd in ("evac", "delta"):
        q["rows"] = _tableau(rng)
        q["argv"] = [cmd, json.dumps(q["rows"], separators=(",", ":"))]
    else:
        q["n"] = rng.randint(1, 11)
        q["list"] = q["n"] <= 8 and rng.random() < 0.5
        q["argv"] = ["enumerate", "--set", "M", "--n", str(q["n"])] + (["--list"] if q["list"] else [])
    q["argv"].append("--json")
    return q


def make_malformed(rng: random.Random, kind: str) -> dict:
    q: dict = {"cmd": kind, "malformed": True}
    if kind in ("duplicate", "out-of-range"):
        w = random_perm(rng, rng.randint(5, 20))
        i, j = rng.sample(range(len(w)), 2)
        if kind == "duplicate":
            w[i] = w[j]
        else:
            w[i] = len(w) + rng.randint(1, 5)
        q["argv"] = [rng.choice(["rsk", "check", "theta"]), *map(str, w)]
    elif kind == "column-order":
        q["argv"] = [rng.choice(["evac", "delta"]), json.dumps(_broken_columns(rng), separators=(",", ":"))]
    else:
        w = random_perm(rng, rng.randint(5, 18))
        a = rng.randint(1, len(w) + 2)
        q["argv"] = ["phi", "--a", str(a), "--b", str(a), *_perm_args(rng, w)]
    q["argv"].append("--json")
    return q


def _broken_columns(rng: random.Random) -> ref.Rows:
    """Entries 1..n with increasing rows and some column out of order."""
    while True:
        parts = ref.shape(_tableau(rng))
        if len(parts) < 2:
            continue
        values = random_perm(rng, sum(parts))
        rows, start = [], 0
        for length in parts:
            rows.append(sorted(values[start : start + length]))
            start += length
        if not ref.is_standard(rows):
            return rows


def check_query(q: dict, rc: int, stdout: str, stderr: str) -> bool:
    """Whether one call's exit code and output match the reference."""
    try:
        got = json.loads(stdout)
        if q["malformed"]:
            err_lines = stderr.splitlines()
            return rc == 2 and len(err_lines) == 1 and err_lines[0].startswith("error: ") and "error" in got
        return _answer_ok(q, rc, got)
    except (ValueError, KeyError, TypeError, AttributeError):
        return False


def _answer_ok(q: dict, rc: int, got: dict) -> bool:
    cmd = q["cmd"]
    if cmd == "rsk":
        p, qt = ref.insert(q["perm"])
        return rc == 0 and got == {"P": p, "Q": qt} and ref.shape(p) == ref.shape(qt)
    if cmd == "check":
        w = q["perm"]
        qw, qr = ref.insert(w)[1], ref.insert(w[::-1])[1]
        member = qw == qr
        hook = ref.is_symmetric_hook(ref.shape(qw))
        return (
            rc == (0 if member else 1)
            and got.get("permutation") == w
            and got.get("in_R") is member
            and got.get("Q") == qw
            and got.get("Q_of_reverse") == qr
            and got.get("symmetric_hook") is hook
            and got.get("in_H") is hook
            and got.get("agrees") is True
        )
    if cmd == "evac":
        evac = ref.evacuation(q["rows"])
        return (
            rc == 0
            and got == {"result": evac, "vacated_cells": ref.evacuation_vacated(evac)}
            and ref.shape(evac) == ref.shape(q["rows"])
        )
    if cmd == "delta":
        rows, cell = ref.delta(q["rows"])
        return rc == 0 and got == {"result": rows, "vacated_cell": cell}
    if cmd == "phi":
        lifted = ref.phi(q["perm"], q["a"], q["b"])
        return rc == 0 and got == {"result": lifted} and ref.theta(got["result"]) == q["perm"]
    if cmd == "theta":
        return rc == 0 and got == {"result": ref.theta(q["perm"])}
    return rc == 0 and _enumerate_ok(q, got)


def _enumerate_ok(q: dict, got: dict) -> bool:
    n, want = q["n"], ref.count_M(q["n"])
    if got.get("set") != "M" or got.get("n") != n or got.get("count") != want:
        return False
    if ("note" in got) != (n % 2 == 0):
        return False
    if not q["list"]:
        return got.get("formula") == want
    members = got.get("members", [])
    fixed = all(
        ref.is_standard(t)
        and ref.is_symmetric_hook(ref.shape(t))
        and ref.transpose(ref.evacuation(t)) == t
        for t in members
    )
    return fixed and len(members) == want and len({json.dumps(t) for t in members}) == want


def perms_in_query(q: dict) -> int:
    """Permutations a query call takes as input (0 for tableau or set queries)."""
    return 1 if "perm" in q else 0
