"""End-to-end acceptance checks.

Each test is one exit criterion, run at full stated size; the terminal
summary prints one PASS/FAIL line per test (see conftest.py).
"""

import json
import subprocess
import sys
import time

from rskcheck.enumeration import (
    SUITES,
    count_M,
    count_R,
    count_R_formula,
    symmetric_hook_shape,
    verify,
    verify_characterization,
    verify_count_theorem,
    verify_phi_theta,
    verify_symmetry_relations,
)
from rskcheck.evacuation import evacuation
from rskcheck.permutations import Permutation, iterate_sn
from rskcheck.reverse_maps import (
    is_in_R,
    phi,
    satisfies_first_row_property,
    theta,
)
from rskcheck.rsk import rsk
from rskcheck.tableaux import count_syt, enumerate_syt, partitions

EXPECTED_COUNTS_1_TO_9 = [1, 0, 4, 0, 24, 0, 160, 0, 1120]


def cli_json(*argv):
    result = subprocess.run(
        [sys.executable, "-m", "rskcheck", *argv, "--json"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def strip_timing(report):
    payload = report.as_dict()
    payload.pop("elapsed_ms")
    payload.pop("workers")
    return payload


def test_criterion_1_counting_identity():
    started = time.perf_counter()
    reports = verify_count_theorem(9, workers=1)
    single_threaded_elapsed = time.perf_counter() - started
    assert [r.observed for r in reports] == EXPECTED_COUNTS_1_TO_9
    assert [r.formula for r in reports] == EXPECTED_COUNTS_1_TO_9
    assert all(r.passed for r in reports)
    assert single_threaded_elapsed < 60.0

    started = time.perf_counter()
    assert count_R(10, workers=4) == 0 == count_R_formula(10)
    assert count_R(11, workers=4) == 8064 == count_R_formula(11)
    parallel_elapsed = time.perf_counter() - started
    assert parallel_elapsed < 600.0


def test_criterion_2_golden_examples_byte_for_byte():
    assert cli_json("rsk", "52314") == (
        '{"P":[[1,3,4],[2],[5]],"Q":[[1,3,5],[2],[4]]}\n'
    )
    assert cli_json("evac", "[[1,3,5],[2],[4]]") == (
        '{"result":[[1,2,4],[3],[5]],'
        '"vacated_cells":[[3,1],[1,3],[2,1],[1,2],[1,1]]}\n'
    )
    phi_golden = {
        (1, 2): '{"result":[1,7,4,5,3,6,2]}\n',
        (1, 7): '{"result":[1,6,3,4,2,5,7]}\n',
        (5, 3): '{"result":[5,7,2,4,1,6,3]}\n',
        (3, 5): '{"result":[3,7,2,4,1,6,5]}\n',
    }
    for (a, b), expected in phi_golden.items():
        assert cli_json("phi", "--a", str(a), "--b", str(b), "52314") == expected
    theta_golden = {
        "231": '{"result":[1]}\n',
        "52314": '{"result":[2,3,1]}\n',
        "1634257": '{"result":[5,2,3,1,4]}\n',
    }
    for perm, expected in theta_golden.items():
        assert cli_json("theta", perm) == expected


def test_criterion_3_characterization_equivalence_to_s9():
    reports = verify_characterization(9, workers=2)
    for report in reports:
        assert report.passed, report.detail
        assert report.observed is True
    assert [r.n for r in reports] == list(range(1, 10))


def test_criterion_4_map_laws():
    # projection undoes every lift, over all of S_5 x 42 parameter pairs
    pairs = [(a, b) for a in range(1, 8) for b in range(1, 8) if a != b]
    assert len(pairs) == 42
    images = []
    for w in iterate_sn(5):
        for a, b in pairs:
            lifted = phi(w, a, b)
            assert theta(lifted) == w
            images.append(lifted.entries)
    # the 42 * 120 = 5040 images are distinct and cover S_7 exactly
    assert len(images) == 5040
    assert len(set(images)) == 5040
    assert set(images) == {w.entries for w in iterate_sn(7)}
    # projection commutes with reverse and complement over all of S_7
    for v in iterate_sn(7):
        assert theta(v.reverse()) == theta(v).reverse()
        assert theta(v.complement()) == theta(v).complement()


def test_criterion_5_eight_relation_suite_s6():
    report = verify_symmetry_relations(6, workers=2)
    assert report.passed, report.detail
    assert report.observed is True


def test_criterion_6_evacuation_properties():
    # shape-preserving involution on every standard tableau of size <= 8
    for n in range(1, 9):
        for shape in partitions(n):
            for t in enumerate_syt(shape):
                ev = evacuation(t)
                assert ev.shape == t.shape
                assert evacuation(ev) == t
    # recording tableau of the reverse = transposed evacuation, all of S_7
    for w in iterate_sn(7):
        assert rsk(w.reverse()).q == evacuation(rsk(w).q).transpose()


def test_criterion_7_fixed_tableau_counts_and_factorization():
    for n in (1, 3, 5, 7, 9, 11):
        fixed_count = count_M(n)
        assert fixed_count == 2 ** ((n - 1) // 2)
        hook = symmetric_hook_shape(n)
        first_row_count = sum(
            1 for t in enumerate_syt(hook) if satisfies_first_row_property(t)
        )
        assert fixed_count == first_row_count
    for n in (1, 3, 5, 7, 9):
        hook = symmetric_hook_shape(n)
        assert count_R(n, workers=2) == count_M(n) * count_syt(hook)


def test_criterion_8_worker_determinism():
    count_runs = {
        workers: [strip_timing(r) for r in verify_count_theorem(9, workers=workers)]
        for workers in (1, 2, 8)
    }
    assert count_runs[1] == count_runs[2] == count_runs[8]

    characterization_runs = {
        workers: [
            strip_timing(r) for r in verify_characterization(9, workers=workers)
        ]
        for workers in (1, 2, 8)
    }
    assert (
        characterization_runs[1]
        == characterization_runs[2]
        == characterization_runs[8]
    )

    map_law_runs = {
        workers: strip_timing(verify_phi_theta(5, workers=workers))
        for workers in (1, 2, 8)
    }
    assert map_law_runs[1] == map_law_runs[2] == map_law_runs[8]


def test_criterion_8_whole_plan_worker_determinism():
    # every suite, with the n! claims and the R searches on one pool
    runs = {}
    for workers in (1, 2, 8):
        reports = [claim() for claim in verify(SUITES, 8, workers=workers)]
        runs[workers] = [(strip_timing(r), r.detail) for r in reports]
    assert len(runs[1]) == 35
    assert all(payload["passed"] for payload, _ in runs[1])
    assert runs[1] == runs[2] == runs[8]


def test_criterion_9_check_command_on_34521():
    result = subprocess.run(
        [sys.executable, "-m", "rskcheck", "check", "34521", "--json"],
        capture_output=True,
        text=True,
    )
    payload = json.loads(result.stdout)
    # the definitional oracle and the shape characterization must agree,
    # whatever the oracle says
    assert payload["agrees"] is True
    assert payload["in_R"] == payload["characterization"]
    # record the oracle's verdict: 34521 is reverse-stable
    assert payload["in_R"] is True
    assert payload["Q"] == [[1, 2, 3], [4], [5]]
    assert payload["Q_of_reverse"] == [[1, 2, 3], [4], [5]]
    assert result.returncode == 0
    # library-level agreement for the same permutation
    w = Permutation.parse("34521")
    assert is_in_R(w) is True
