"""Shows that the benchmark's checks can fail.

The checker is fed correct outputs built from the reference, which must
pass, and doctored copies, each of which must be flagged as a failed
operation. `run.py` runs this before every measurement; it also runs on
its own:

    python3 bench/selftest.py
"""

from __future__ import annotations

import json
import random
import sys

import reference as ref
import workloads as wl

WORKERS = 2


def _report(check: str, n: int) -> dict:
    value: int | bool = ref.count_R(n) if check == "count_R" else True
    return {
        "check": check,
        "n": n,
        "observed": value,
        "expected": value,
        "formula": value if check == "count_R" else None,
        "passed": True,
        "elapsed_ms": 1,
        "workers": WORKERS,
    }


def _sweep_failed(pairs: list[tuple[str, int]], reports: list[dict], rc: int = 0) -> int:
    text = "".join(json.dumps(r, separators=(",", ":")) + "\n" for r in reports)
    return wl.check_sweep(pairs, WORKERS, rc, text, text)


def failures() -> list[str]:
    """Every way in which the checks or the reference misbehave."""
    problems = [f"reference: {msg}" for msg in ref.worked_examples_failures()]

    for name, (_, pairs) in wl.SWEEPS.items():
        if _sweep_failed(pairs, [_report(*pair) for pair in pairs]):
            problems.append(f"a correct {name} output is flagged")

    count_pairs = wl.SWEEPS["count-sweep"][1]
    mix_pairs = wl.SWEEPS["suite-mix"][1]
    count = [_report(*pair) for pair in count_pairs]
    count[8].update(observed=1121, expected=1121, formula=1121)
    mix = [_report(*pair) for pair in mix_pairs]
    missing = [r for r in mix if (r["check"], r["n"]) != ("characterization", 5)]
    not_passed = [dict(r) for r in mix]
    not_passed[20]["passed"] = False
    doctored = {
        "a wrong count": _sweep_failed(count_pairs, count),
        "a missing (check, n) report": _sweep_failed(mix_pairs, missing),
        "a passed:false line": _sweep_failed(mix_pairs, not_passed),
    }
    for what, failed in doctored.items():
        if failed != 1:
            problems.append(f"{what} gives {failed} failed operations, not 1")

    rsk_query = {"cmd": "rsk", "malformed": False, "perm": [5, 2, 3, 1, 4]}
    right = '{"P":[[1,3,4],[2],[5]],"Q":[[1,3,5],[2],[4]]}\n'
    wrong = '{"P":[[1,3,4],[2],[5]],"Q":[[1,3,4],[2],[5]]}\n'
    if not wl.check_query(rsk_query, 0, right, ""):
        problems.append("a correct rsk answer is flagged")
    if wl.check_query(rsk_query, 0, wrong, ""):
        problems.append("a wrong rsk answer passes")

    bad_input = wl.make_malformed(random.Random(0), "duplicate")
    diagnostic = ('{"error":"duplicate value"}\n', "error: duplicate value\n")
    if not wl.check_query(bad_input, 2, *diagnostic):
        problems.append("a malformed input that exits 2 is flagged")
    if wl.check_query(bad_input, 0, *diagnostic):
        problems.append("a malformed input that exits 0 passes")
    return problems


if __name__ == "__main__":
    found = failures()
    for line in found:
        print(f"selftest: {line}", file=sys.stderr)
    print("selftest: " + ("FAILED" if found else "all checks shown able to fail"))
    sys.exit(1 if found else 0)
