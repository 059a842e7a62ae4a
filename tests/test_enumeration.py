import concurrent.futures
import functools
import json
import os
import re

import pytest

from rskcheck import enumeration
from rskcheck.enumeration import (
    SUITES,
    VerificationReport,
    append_reports,
    count_H,
    count_M,
    count_M_formula,
    count_R,
    count_R_formula,
    list_set,
    symmetric_hook_shape,
    verify,
    verify_characterization,
    verify_count_theorem,
    verify_phi_theta,
    verify_R_transport,
    verify_symmetry_relations,
)
from rskcheck.permutations import Permutation, iterate_sn
from rskcheck.reverse_maps import is_in_H, is_in_M, is_in_R, satisfies_first_row_property
from rskcheck.rsk import rsk
from rskcheck.tableaux import count_syt


def report_payload(report):
    """Mathematical content of a report: everything except timing and the
    worker-count echo."""
    payload = report.as_dict()
    payload.pop("elapsed_ms")
    payload.pop("workers")
    return payload


class TestFormula:
    def test_values(self):
        assert [count_R_formula(n) for n in range(1, 12)] == [
            1, 0, 4, 0, 24, 0, 160, 0, 1120, 0, 8064,
        ]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            count_R_formula(0)


class TestCountMFormula:
    def test_values(self):
        assert [count_M_formula(n) for n in range(1, 12)] == [
            1, 0, 2, 0, 4, 0, 8, 0, 16, 0, 32,
        ]

    @pytest.mark.parametrize("n", range(1, 12))
    def test_matches_brute_force(self, n):
        assert count_M(n) == count_M_formula(n)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="size must be positive"):
            count_M_formula(0)


class TestSymmetricHookShape:
    def test_examples(self):
        assert symmetric_hook_shape(1).parts == (1,)
        assert symmetric_hook_shape(5).parts == (3, 1, 1)
        assert symmetric_hook_shape(7).parts == (4, 1, 1, 1)

    def test_even_rejected(self):
        with pytest.raises(ValueError, match="no symmetric hook"):
            symmetric_hook_shape(4)


class TestCounts:
    def test_count_R_examples(self):
        assert count_R(1) == 1
        assert count_R(4) == 0
        assert count_R(5) == 24

    @pytest.mark.parametrize("n", range(1, 7))
    def test_count_R_matches_membership_predicate(self, n):
        assert count_R(n) == sum(1 for w in iterate_sn(n) if is_in_R(w))

    def test_count_H_examples(self):
        assert count_H(2) == 0
        assert count_H(5) == 36
        assert count_H(1) == 1

    @pytest.mark.parametrize("n", range(1, 7))
    def test_count_H_matches_membership_predicate(self, n):
        assert count_H(n) == sum(1 for w in iterate_sn(n) if is_in_H(w))

    def test_count_H_5_is_square_of_tableau_count(self):
        # 36 = 6^2: one factor per insertion tableau, one per recording
        assert count_H(5) == count_syt(symmetric_hook_shape(5)) ** 2

    def test_count_M_examples(self):
        assert count_M(1) == 1
        assert count_M(5) == 4
        assert count_M(7) == 8

    def test_count_M_even_is_zero_not_an_error(self):
        assert count_M(2) == 0
        assert count_M(8) == 0

    def test_range_validation(self):
        with pytest.raises(ValueError, match="outside the configured range"):
            count_R(0)
        with pytest.raises(ValueError, match="outside the configured range"):
            count_R(12)
        with pytest.raises(ValueError, match="outside the configured range"):
            count_M(13)
        assert count_R(5, max_n=5) == 24

    def test_workers_do_not_change_counts(self):
        expected = count_R(6)
        assert expected == 0
        for workers in (2, 8):
            assert count_R(6, workers=workers) == expected
        assert count_R(5, workers=3) == 24
        assert count_H(5, workers=2) == 36

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_below_one_rejected_once_per_sweep(self, monkeypatch, workers):
        visited = []
        monkeypatch.setattr(
            enumeration, "same_recording_tableau", lambda u, v: visited.append(u)
        )
        with pytest.raises(ValueError, match=f"workers must be at least 1, got {workers}"):
            count_R(5, workers=workers)
        with pytest.raises(ValueError, match="workers must be at least 1"):
            list_set("H", 3, workers=workers)
        assert visited == []


@functools.cache
def brute_force_R(n):
    """R_n by the definitional test on every permutation, in rank order."""
    return [w.entries for w in iterate_sn(n) if is_in_R(w)]


class TestPrunedSweepAgainstBruteForce:
    @pytest.mark.parametrize("workers", [1, 2, 8])
    @pytest.mark.parametrize("n", range(1, 10))
    def test_counts(self, n, workers):
        assert count_R(n, workers=workers) == len(brute_force_R(n))

    @pytest.mark.parametrize("workers", [1, 2, 8])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_members(self, n, workers):
        members = list_set("R", n, workers=workers)
        assert [w.entries for w in members] == brute_force_R(n)


def brute_force_characterized(n):
    """C_n by a filter over S_n: Q(w) is the symmetric hook and has the
    first-row property."""
    found = []
    for w in iterate_sn(n):
        q = rsk(w).q
        if q.shape.is_symmetric_hook() and satisfies_first_row_property(q):
            found.append(w.entries)
    return found


class TestInverseImagesAgainstBruteForce:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_hook_shaped_members(self, n):
        members = list_set("H", n)
        assert [w.entries for w in members] == [w.entries for w in iterate_sn(n) if is_in_H(w)]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_characterized_set(self, n):
        recording = [
            q for q in enumeration._hook_tableaux(n) if satisfies_first_row_property(q)
        ]
        assert enumeration._inverse_images(recording) == brute_force_characterized(n)

    def test_no_rank_scan(self, monkeypatch):
        calls = []
        monkeypatch.setattr(enumeration, "_sweep", lambda *args: calls.append(args) or [])
        assert all(r.passed for r in verify_characterization(9))
        assert count_H(9) == 4900
        assert len(list_set("H", 8)) == 0
        assert calls == []


class SerialPool:
    """Stands in for the process pool: records its size and maps in this
    process, so no test here starts a real pool."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def map(self, fn, iterable):
        return map(fn, iterable)


class TestPoolSize:
    @pytest.mark.parametrize(
        "cpus, workers, expected",
        [
            (2, 64, [2, 2, 2, 2]),  # the pool never outgrows the CPUs
            (None, 64, [1, 1, 1, 1]),  # unknown CPU count: one process
            (8, 3, [2, 3, 3, 3]),  # nor the letters: n = 2 has two
        ],
    )
    def test_pool_capped_at_chunks_and_cpus(self, monkeypatch, cpus, workers, expected):
        monkeypatch.setattr(SerialPool, "sizes", [])
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        reports = verify_count_theorem(5, workers=workers)
        # n = 1 is one task and runs without a pool
        assert SerialPool.sizes == expected
        assert [r.observed for r in reports] == [1, 0, 4, 0, 24]
        assert all(r.passed and r.workers == workers for r in reports)

    def test_one_task_per_first_letter(self, monkeypatch):
        monkeypatch.setattr(SerialPool, "sizes", [])
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        tasks = enumeration._by_first_letter(lambda task: task, 4, 5)
        assert tasks == [(4, 1), (4, 2), (4, 3), (4, 4)]
        assert SerialPool.sizes == [2]


class TestSweep:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_first_letter_blocks_concatenate_to_rank_order(self, n):
        visited = []
        for a in range(1, n + 1):
            enumeration._sweep(visited.append, False, (n, a))
        assert visited == [w.entries for w in iterate_sn(n)]


class TestListSet:
    def test_reverse_stable_s3(self):
        members = list_set("R", 3)
        assert members == [
            Permutation.parse("132"),
            Permutation.parse("213"),
            Permutation.parse("231"),
            Permutation.parse("312"),
        ]
        assert len(members) == count_R_formula(3)

    def test_reverse_stable_s2_empty(self):
        assert list_set("R", 2) == []

    def test_fixed_tableaux_s5_first_rows(self):
        members = list_set("M", 5)
        assert len(members) == 4
        assert {t.rows[0] for t in members} == {
            (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 5),
        }
        assert all(is_in_M(t) for t in members)

    def test_fixed_tableaux_even_empty(self):
        assert list_set("M", 4) == []

    def test_hook_shaped_s3(self):
        members = list_set("H", 3)
        assert [w.entries for w in members] == [
            (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2),
        ]

    def test_lexicographic_order_and_worker_stability(self):
        single = list_set("R", 5)
        assert [w.entries for w in single] == sorted(w.entries for w in single)
        assert list_set("R", 5, workers=4) == single

    def test_listing_cap(self):
        with pytest.raises(ValueError, match="capped"):
            list_set("R", 9)

    def test_listing_cap_override(self):
        assert len(list_set("R", 9, list_max=9, workers=2)) == 1120

    @pytest.mark.parametrize(
        "which, n, list_max, max_n, message",
        [
            ("R", 14, 14, 11, "n=14 outside the configured range [1, 11]"),
            ("H", 23, 30, 11, "n=23 outside the configured range [1, 11]"),
            ("R", 6, 8, 5, "n=6 outside the configured range [1, 5]"),
            ("R", 0, 8, 5, "size must be positive, got 0"),
            ("H", 12, 8, 11, "listing is capped at n=8"),
        ],
    )
    def test_listing_stays_in_the_count_range(
        self, monkeypatch, which, n, list_max, max_n, message
    ):
        searched = []
        monkeypatch.setattr(
            enumeration, "_reverse_stable_members", lambda n, workers: searched.append(n)
        )
        with pytest.raises(ValueError, match=re.escape(message)):
            list_set(which, n, list_max=list_max, max_n=max_n)
        assert searched == []

    def test_unknown_set(self):
        with pytest.raises(ValueError, match="unknown set"):
            list_set("X", 3)


class TestVerifyCountTheorem:
    def test_n_max_5(self):
        reports = verify_count_theorem(5)
        assert [r.observed for r in reports] == [1, 0, 4, 0, 24]
        assert all(r.passed for r in reports)
        assert all(r.observed == r.expected == r.formula for r in reports)
        assert [r.n for r in reports] == [1, 2, 3, 4, 5]
        assert all(r.check == "count_R" for r in reports)

    def test_n_max_7_includes_160(self):
        reports = verify_count_theorem(7)
        assert reports[-1].observed == 160
        assert all(r.passed for r in reports)


class TestVerifyCharacterization:
    def test_n_max_5(self):
        reports = verify_characterization(5)
        assert len(reports) == 5
        assert all(r.passed for r in reports)
        assert all(r.observed is True and r.expected is True for r in reports)
        assert all(r.detail is None for r in reports)

    def test_even_sizes_agree_with_both_sides_false(self):
        for w in iterate_sn(2):
            q = rsk(w).q
            assert not is_in_R(w)
            assert not q.shape.is_symmetric_hook()


class TestVerifySymmetryRelations:
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_passes(self, n):
        report = verify_symmetry_relations(n)
        assert report.passed
        assert report.check == "symmetry_relations"

    def test_specific_inverse_relation(self):
        w = Permutation.parse("52314")
        pair = rsk(w)
        swapped = rsk(w.inverse())
        assert swapped.p == pair.q
        assert swapped.q == pair.p
        assert w.inverse() == Permutation.parse("42351")

    def test_range(self):
        with pytest.raises(ValueError, match=r"\[1, 7\]"):
            verify_symmetry_relations(8)


class TestVerifyPhiTheta:
    def test_small_sizes_pass(self):
        for n in (1, 2, 4):
            report = verify_phi_theta(n)
            assert report.passed, report.detail

    def test_range(self):
        with pytest.raises(ValueError, match=r"\[1, 6\]"):
            verify_phi_theta(7)


class TestVerifyRTransport:
    @pytest.mark.parametrize("n,members", [(1, 4), (3, 24), (5, 160)])
    def test_passes_and_counts_members(self, n, members):
        report = verify_R_transport(n)
        assert report.passed
        assert report.detail == f"checked {members} members"

    def test_range(self):
        with pytest.raises(ValueError, match="outside the configured range"):
            verify_R_transport(10)


class TestVerifyEngine:
    def record_builds(self, monkeypatch):
        built = []
        real = enumeration._reverse_stable_members

        def recorder(n, workers):
            built.append(n)
            return real(n, workers)

        monkeypatch.setattr(enumeration, "_reverse_stable_members", recorder)
        return built

    def test_claims_in_suite_order_then_by_size(self, monkeypatch):
        built = self.record_builds(monkeypatch)
        reports = [claim() for claim in verify(reversed(SUITES), 4)]
        assert all(r.passed for r in reports)
        assert [(r.check, r.n) for r in reports] == [
            *(("count_R", n) for n in range(1, 5)),
            *(("characterization", n) for n in range(1, 5)),
            *(("symmetry_relations", n) for n in range(1, 5)),
            *(("phi_theta", n) for n in range(1, 5)),
            ("r_transport", 1),
            ("r_transport", 2),
        ]
        assert sorted(built) == [1, 2, 3, 4]

    def test_planning_runs_no_claim(self, monkeypatch):
        built = self.record_builds(monkeypatch)
        # count and characterization 11 each, symmetry 7, phi/theta 6,
        # transport sources 1..9
        assert len(verify(SUITES, 11)) == 44
        assert built == []

    def test_memo_lives_for_one_plan(self, monkeypatch):
        built = self.record_builds(monkeypatch)
        for _ in range(2):
            [claim() for claim in verify(["count", "transport"], 3)]
        assert sorted(built) == [1, 1, 2, 2, 3, 3]

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError, match="unknown suite 'bogus'"):
            verify(["count", "bogus"], 3)

    @pytest.mark.parametrize(
        "suites, message",
        [
            (["count", "transport"], "n=9 outside"),
            (["symmetry", "transport"], "n=6 outside"),
            (["characterization"], "n=9 outside"),
        ],
    )
    def test_first_range_error_in_suite_order(self, suites, message):
        with pytest.raises(ValueError, match=message):
            verify(suites, 9, max_n=5)


class TestDeterminismAcrossWorkers:
    def test_count_reports(self):
        baseline = [report_payload(r) for r in verify_count_theorem(6, workers=1)]
        for workers in (2, 8):
            again = [
                report_payload(r) for r in verify_count_theorem(6, workers=workers)
            ]
            assert again == baseline

    def test_characterization_reports(self):
        baseline = [report_payload(r) for r in verify_characterization(5, workers=1)]
        for workers in (2, 8):
            again = [
                report_payload(r) for r in verify_characterization(5, workers=workers)
            ]
            assert again == baseline

    def test_phi_theta_report(self):
        baseline = report_payload(verify_phi_theta(3, workers=1))
        for workers in (2, 8):
            assert report_payload(verify_phi_theta(3, workers=workers)) == baseline


class TestCrossSetProperties:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_reverse_stable_within_hook_shaped(self, n):
        assert count_R(n) <= count_H(n)

    @pytest.mark.parametrize(
        "n,hook_count",
        [(5, 36), (7, 400), (9, 4900)],
    )
    def test_strict_containment_for_odd_n_at_least_5(self, n, hook_count):
        # the hook-shaped count is the square of the hook's tableau count:
        # one factor for the insertion tableau, one for the recording one
        assert hook_count == count_syt(symmetric_hook_shape(n)) ** 2
        assert count_H(n, workers=2) == hook_count
        assert count_R(n, workers=2) < hook_count

    @pytest.mark.parametrize("n", [1, 3, 5, 7])
    def test_factorization(self, n):
        hook = symmetric_hook_shape(n)
        assert count_R(n) == count_M(n) * count_syt(hook)

    def test_count_M_beyond_default_cap(self):
        assert count_M(13, max_n=13) == 64


class TestReportSerialization:
    def test_schema_keys_and_order(self):
        report = verify_count_theorem(1)[0]
        payload = report.as_dict()
        assert list(payload) == [
            "check", "n", "observed", "expected", "formula",
            "passed", "elapsed_ms", "workers",
        ]
        parsed = json.loads(report.to_json())
        assert parsed == payload

    def test_booleans_serialize_as_json_booleans(self):
        report = verify_phi_theta(1)
        parsed = json.loads(report.to_json())
        assert parsed["observed"] is True
        assert parsed["passed"] is True
        assert parsed["formula"] is None

    def test_detail_not_in_schema(self):
        report = VerificationReport(
            check="count_R",
            n=1,
            observed=1,
            expected=1,
            formula=1,
            passed=True,
            elapsed_ms=0,
            workers=1,
            detail="should not leak",
        )
        assert "detail" not in report.as_dict()
        assert "detail" not in report.to_json()

    def test_append_reports(self, tmp_path):
        path = tmp_path / "out.jsonl"
        reports = verify_count_theorem(3)
        append_reports(reports, path)
        append_reports(reports, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 6
        assert all(json.loads(line)["check"] == "count_R" for line in lines)
