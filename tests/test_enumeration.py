import functools
import json
import os
import re
from itertools import permutations
from math import factorial

import pytest

from rskcheck import enumeration
from rskcheck.enumeration import (
    SUITES,
    VerificationReport,
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
from rskcheck.evacuation import evacuation
from rskcheck.permutations import Permutation, iterate_sn
from rskcheck.reverse_maps import is_in_H, is_in_M, is_in_R, satisfies_first_row_property
from rskcheck.rsk import TableauPair, rsk
from rskcheck.tableaux import StandardYoungTableau, count_syt


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
        assert symmetric_hook_shape(1) == (1,)
        assert symmetric_hook_shape(5) == (3, 1, 1)
        assert symmetric_hook_shape(7) == (4, 1, 1, 1)

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
        # 36 = 6^2: one factor per insertion tableau, one per recording;
        # likewise at the smallest size and at the default top size
        for n in (1, 5, 9, 11):
            assert count_H(n) == count_syt(symmetric_hook_shape(n)) ** 2

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
            enumeration, "same_recording_tableau", lambda u, v, start: visited.append(u)
        )
        with pytest.raises(ValueError, match=f"workers must be at least 1, got {workers}"):
            count_R(5, workers=workers)
        with pytest.raises(ValueError, match="workers must be at least 1"):
            list_set("H", 3, workers=workers)
        assert visited == []

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_below_one_rejected_before_any_scan(self, monkeypatch, workers):
        scanned = []
        monkeypatch.setattr(
            enumeration, "permutations", lambda *args: scanned.append(args) or iter(())
        )
        monkeypatch.setattr(enumeration, "_reverse_stable", lambda task: scanned.append(task) or [])
        calls = [
            lambda: verify(["symmetry"], 3, workers=workers),
            lambda: verify(SUITES, 3, workers=workers),
            lambda: verify_symmetry_relations(3, workers=workers),
            lambda: verify_phi_theta(3, workers=workers),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=f"workers must be at least 1, got {workers}"):
                call()
        assert scanned == []


@functools.cache
def brute_force_R(n):
    """R_n by the definitional test on every permutation, in rank order."""
    return [w for w in iterate_sn(n) if is_in_R(w)]


def bumped(letters):
    """The insertion rows of a word of distinct letters, and the cell each
    letter made, by the bump rule written out."""
    rows, cells = [], []
    for x in letters:
        for r, row in enumerate(rows):
            larger = [c for c, y in enumerate(row) if y > x]
            if not larger:
                row.append(x)
                cells.append((r, len(row) - 1))
                break
            row[larger[0]], x = x, row[larger[0]]
        else:
            rows.append([x])
            cells.append((len(rows) - 1, 0))
    return rows, cells


class TestPrunedSweepAgainstBruteForce:
    @pytest.mark.parametrize("workers", [1, 2, 8])
    @pytest.mark.parametrize("n", range(1, 10))
    def test_counts(self, n, workers):
        assert count_R(n, workers=workers) == len(brute_force_R(n))

    @pytest.mark.parametrize("workers", [1, 2, 8])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_members(self, n, workers):
        members = list_set("R", n, workers=workers)
        assert members == brute_force_R(n)

    def test_leaf_judges_one_word_of_each_reversal_pair(self, monkeypatch):
        judged = []
        real = enumeration.same_recording_tableau

        def leaf(u, v, *, start):
            # The leaf gets the tails of w and w^r past the search's steps:
            # v reversed is w's front, and w's last 9 - len(v) letters end u.
            judged.append((*v[::-1], *u[len(u) - (9 - len(v)) :]))
            return real(u, v, start=start)

        monkeypatch.setattr(enumeration, "same_recording_tableau", leaf)
        assert count_R(9) == 1120
        # a search of both orders would complete 40,320 words
        assert len(set(judged)) == len(judged) == 20160
        assert all(w[0] < w[-1] for w in judged)

    @pytest.mark.parametrize("n", range(2, 10))
    def test_leaf_starts_from_the_rows_of_both_ends(self, monkeypatch, n):
        half = n // 2
        judged = []
        real = enumeration.same_recording_tableau

        def leaf(u, v, *, start):
            w = (*v[::-1], *u[len(u) - half :])
            judged.append(w)
            # The rows of w's first half letters, and of w^r's.
            assert [list(row) for row in start[0]] == bumped(w[:half])[0]
            assert [list(row) for row in start[1]] == bumped(w[::-1][:half])[0]
            return real(u, v, start=start)

        monkeypatch.setattr(enumeration, "same_recording_tableau", leaf)
        assert count_R(n) == count_R_formula(n)
        # Completed: steps 1..half of Q(w) and Q(w^r) agree. Judged: one word
        # of each such reversal pair, the one with w_1 < w_n.
        cells = functools.cache(lambda letters: bumped(letters)[1])
        completed = [
            w for w in permutations(range(1, n + 1))
            if w[0] < w[-1] and cells(w[:half]) == cells(w[: -half - 1 : -1])
        ]
        assert sorted(judged) == completed


def brute_force_characterized(n):
    """C_n by a filter over S_n: Q(w) is the symmetric hook and has the
    first-row property."""
    found = []
    for w in iterate_sn(n):
        q = rsk(w).q
        if q.shape.is_symmetric_hook() and satisfies_first_row_property(q):
            found.append(w)
    return found


class TestInverseImagesAgainstBruteForce:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_hook_shaped_members(self, n):
        members = list_set("H", n)
        assert members == [w for w in iterate_sn(n) if is_in_H(w)]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_characterized_set(self, n):
        recording = [
            q for q in enumeration._hook_tableaux(n) if satisfies_first_row_property(q)
        ]
        assert enumeration._inverse_images(recording) == brute_force_characterized(n)

    def test_no_rank_scan(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            enumeration, "permutations", lambda *args: calls.append(args) or iter(())
        )
        assert all(r.passed for r in verify_characterization(9))
        assert count_H(9) == 4900
        assert len(list_set("H", 8)) == 0
        assert calls == []


def brute_force_relations(n):
    """The first failure of the eight relations over S_n, by a fresh rsk
    for every case of every word, through the module global as the
    suite sees it."""
    for w in iterate_sn(n):
        pair = enumeration.rsk(w)
        p, q = pair.p, pair.q
        ep, eq = evacuation(p), evacuation(q)
        wi = w.inverse()
        cases = (
            ("identity", w, p, q),
            ("complement", w.complement(), ep.transpose(), q.transpose()),
            ("reverse", w.reverse(), p.transpose(), eq.transpose()),
            ("reverse-complement", w.reverse().complement(), ep, eq),
            ("inverse", wi, q, p),
            ("inverse-complement", wi.complement(), eq.transpose(), p.transpose()),
            ("inverse-reverse", wi.reverse(), q.transpose(), ep.transpose()),
            ("inverse-reverse-complement", wi.reverse().complement(), eq, ep),
        )
        for name, v, expect_p, expect_q in cases:
            got = enumeration.rsk(v)
            if got.p != expect_p or got.q != expect_q:
                return f"{name} relation fails for {w}"
    return None


# With its P and Q swapped, each word's first failure is the relation
# named here: together they reach all seven relations but the identity.
BAD_INSERTIONS = {
    "2 3 1": "reverse",
    "1 3 4 2": "complement",
    "4 1 3 2": "inverse-complement",
    "2 5 1 3 4": "reverse-complement",
    "1 4 2 3": "inverse",
    "3 2 4 1": "inverse-reverse",
    "2 3 1 4": "inverse-reverse-complement",
}


class TestSymmetryAgainstBruteForce:
    # up to the size that verify runs the suite at
    @pytest.mark.parametrize("n", range(1, enumeration.SYMMETRY_MAX_N + 1))
    def test_agrees_on_every_word(self, n):
        report = verify_symmetry_relations(n)
        assert report.passed
        assert report.detail is None
        assert brute_force_relations(n) is None

    @pytest.mark.parametrize("word", list(BAD_INSERTIONS))
    def test_same_first_failure_with_one_bad_insertion(self, monkeypatch, word):
        bad = Permutation.parse(word)
        real = enumeration.rsk

        def swap_for_one_word(w):
            pair = real(w)
            return TableauPair(pair.q, pair.p) if w == bad else pair

        monkeypatch.setattr(enumeration, "rsk", swap_for_one_word)
        report = verify_symmetry_relations(bad.n)
        assert not report.passed
        assert report.detail == brute_force_relations(bad.n)
        assert report.detail.startswith(f"{BAD_INSERTIONS[word]} relation fails for ")

    def test_call_counts(self, monkeypatch):
        counts = {"rsk": 0, "evacuation": 0, "theta": 0, "transpose": 0}

        def recorder(name, real):
            def record(*args):
                counts[name] += 1
                return real(*args)

            return record

        for name in ("rsk", "evacuation", "theta"):
            monkeypatch.setattr(enumeration, name, recorder(name, getattr(enumeration, name)))
        monkeypatch.setattr(
            StandardYoungTableau, "transpose", recorder("transpose", StandardYoungTableau.transpose)
        )
        assert verify_symmetry_relations(6).passed
        assert verify_phi_theta(5).passed
        # 720 words, 76 standard tableaux of size 6, each evacuated and
        # transposed at most once, and at n = 5 one projection per lift
        assert counts["rsk"] == 720
        assert counts["evacuation"] <= 76
        assert counts["transpose"] <= 76
        assert counts["theta"] == 120 * 42


def brute_force_phi_theta(n):
    """The first failure of the phi/theta laws at size n, by three plain
    loops that call phi and theta afresh for every case, through the
    module globals as the suite sees them."""
    m = n + 2
    images = set()
    for w in iterate_sn(n):
        for a in range(1, m + 1):
            for b in range(1, m + 1):
                if a == b:
                    continue
                lifted = enumeration.phi(w, a, b)
                if enumeration.theta(lifted) != w:
                    return f"projection fails to undo lift ({a},{b}) of {w}"
                images.add(lifted)
    if len(images) != factorial(m):
        return f"lift images cover {len(images)} of {factorial(m)} permutations"
    for v in iterate_sn(m):
        projected = enumeration.theta(v)
        if enumeration.theta(v.reverse()) != projected.reverse():
            return f"projection does not commute with reverse on {v}"
        if enumeration.theta(v.complement()) != projected.complement():
            return f"projection does not commute with complement on {v}"
    return None


real_phi = enumeration.phi
real_theta = enumeration.theta


def theta_reversed(v):
    return real_theta(v).reverse()


def phi_fixed_endpoints(w, a, b):
    return real_phi(w, 1, w.n + 2)


def twisted_by(twist, when):
    """A phi and a theta that twist the interior of every lift whose
    endpoints (a, b) in S_m satisfy when(a, b, m): theta still undoes phi
    and the lifts still tile, but projection may no longer commute with
    reverse or complement."""

    def phi_twisted(w, a, b):
        return real_phi(twist(w) if when(a, b, w.n + 2) else w, a, b)

    def theta_untwisted(v):
        projected = real_theta(v)
        return twist(projected) if when(v[0], v[-1], v.n) else projected

    return {"phi": phi_twisted, "theta": theta_untwisted}


class TestPhiThetaAgainstBruteForce:
    @pytest.mark.parametrize(
        "patches, failing",
        [
            ({}, None),
            ({"theta": theta_reversed}, "projection fails to undo lift"),
            ({"phi": phi_fixed_endpoints}, "lift images cover"),
            (
                twisted_by(Permutation.complement, lambda a, b, m: a < b),
                "does not commute with reverse",
            ),
            # a + b < m + 1 is kept by reverse and flipped by complement
            (
                twisted_by(Permutation.reverse, lambda a, b, m: a + b < m + 1),
                "does not commute with complement",
            ),
        ],
        ids=["real", "theta_reversed", "phi_fixed_endpoints", "twist_complement", "twist_reverse"],
    )
    def test_same_first_failure(self, monkeypatch, patches, failing):
        for name, patched in patches.items():
            monkeypatch.setattr(enumeration, name, patched)
        details = [verify_phi_theta(n).detail for n in range(1, 6)]
        assert details == [brute_force_phi_theta(n) for n in range(1, 6)]
        if failing is None:
            assert details == [None] * 5
        else:
            assert any(failing in (detail or "") for detail in details)


def test_phi_theta_agrees_with_brute_force_at_its_cap():
    n = enumeration.PHI_THETA_MAX_N
    report = verify_phi_theta(n)
    assert report.passed
    assert report.detail is None
    assert brute_force_phi_theta(n) is None


class TestPoolSize:
    @pytest.mark.parametrize(
        "cpus, workers, expected",
        [
            (2, 64, [2]),  # one pool for the plan, never larger than the CPUs
            (None, 64, []),  # unknown CPU count: one process, so none is started
            (8, 3, [3]),  # nor the workers asked for
            (16, 64, [10]),  # nor the tasks queued: ten, for R_2 to R_4
        ],
    )
    def test_pool_capped_at_chunks_and_cpus(self, monkeypatch, serial_pool, cpus, workers, expected):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        reports = verify_count_theorem(4, workers=workers)
        assert serial_pool.sizes == expected
        assert [r.observed for r in reports] == [1, 0, 4, 0]
        assert all(r.passed and r.workers == workers for r in reports)

    def test_one_task_per_pair_of_end_letters(self, monkeypatch, serial_pool):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        tasks = []
        monkeypatch.setattr(enumeration, "_reverse_stable", lambda task: tasks.append(task) or [])
        assert count_R(4, workers=5) == 0
        assert tasks == [(4, 1, 2), (4, 1, 3), (4, 1, 4), (4, 2, 3), (4, 2, 4), (4, 3, 4)]
        assert serial_pool.sizes == [2]
        assert serial_pool.events == ["start", "close"]

    def test_plan_pool_spans_its_searches(self, serial_pool):
        for claim in verify(SUITES, 5, workers=2):
            report = claim()
            serial_pool.events.append((report.check, report.n))
        # The first claim starts the plan's one pool, though R_1 needs no
        # task. phi/theta at n = 5 takes the last queued result and closes
        # the pool before its report; transport takes R_3 to R_5 from the
        # memo.
        assert serial_pool.events[:2] == ["start", ("count_R", 1)]
        assert serial_pool.events[-5:] == [
            "close", ("phi_theta", 5), ("r_transport", 1), ("r_transport", 2), ("r_transport", 3),
        ]
        assert serial_pool.events.count("start") == serial_pool.events.count("close") == 1

    @pytest.mark.parametrize("n_max", range(1, 10))
    def test_queue_order_whole_claims_largest_group_first(self, monkeypatch, serial_pool, n_max):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        # Each n! claim whole, the largest group scanned first: phi/theta at
        # n scans S_{n+2}, and ties keep SUITES order.
        scans = {  # each n! suite's scan, cap and group size above n
            "symmetry": ("_relations_failure", enumeration.SYMMETRY_MAX_N, 0),
            "phi_theta": ("_phi_theta_failure", enumeration.PHI_THETA_MAX_N, 2),
        }
        claims = [
            (suite, n) for suite in SUITES if suite in scans
            for n in range(1, min(n_max, scans[suite][1]) + 1)
        ]
        whole = sorted(claims, key=lambda claim: -claim[1] - scans[claim[0]][2])
        tasks = {claim: range(i, i + 1) for i, claim in enumerate(whole)}
        queued = [(scans[suite][0], n) for suite, n in whole]
        # Then the pair tasks of R_1 to R_{n_max}, by size: count and
        # characterization read each, and transport R_3 up to R_{n_max}.
        for n in range(1, n_max + 1):
            pairs = [("_reverse_stable", (n, a, b)) for a in range(1, n) for b in range(a + 1, n + 1)]
            tasks[n] = range(len(queued), len(queued) + len(pairs))
            queued += pairs
        plan = verify(SUITES, n_max, workers=2)
        assert plan.tasks == tasks
        assert all(claim().passed for claim in plan)
        assert serial_pool.queued == queued

    def test_interrupted_search_closes_the_plan_pool(self, monkeypatch, serial_pool):
        def interrupt(task):
            raise KeyboardInterrupt

        monkeypatch.setattr(enumeration, "_reverse_stable", interrupt)
        claims = verify(["count"], 4, workers=2)
        assert claims[0]().passed
        with pytest.raises(KeyboardInterrupt):
            claims[1]()
        assert serial_pool.events == ["start", "close"]

    def test_interrupted_claim_closes_the_plan_pool(self, monkeypatch, serial_pool):
        # Ctrl-C in a claim's own work, with tasks still queued
        def interrupt(n, members):
            raise KeyboardInterrupt

        monkeypatch.setattr(enumeration, "_characterization", interrupt)
        claims = verify(["characterization", "symmetry"], 3, workers=2)
        with pytest.raises(KeyboardInterrupt):
            claims[0]()
        assert serial_pool.events == ["start", "close"]

    def test_broken_pool_fails_only_the_claims_that_need_it(self, monkeypatch, serial_pool):
        real = serial_pool.take

        def take(self, i):
            if i:
                raise ChildProcessError("a pool worker ended abruptly")
            return real(self, i)

        monkeypatch.setattr(serial_pool, "take", take)
        claims = verify(["count"], 3, workers=2)
        assert claims[0]().passed  # R_1 needs no task
        assert claims[1]().passed  # R_2's one task was taken before the break
        with pytest.raises(ChildProcessError, match="a pool worker ended abruptly"):
            claims[2]()
        assert serial_pool.events == ["start", "close"]

    def test_no_fork_runs_every_task_in_this_process(self, monkeypatch, serial_pool):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        pooled = [claim() for claim in verify(SUITES, 5, workers=2)]
        monkeypatch.delattr(os, "fork")
        alone = [claim() for claim in verify(SUITES, 5, workers=2)]
        assert serial_pool.sizes == [2]  # the pooled run's, and none without fork
        assert [r._replace(elapsed_ms=0) for r in alone] == [
            r._replace(elapsed_ms=0) for r in pooled
        ]

    @pytest.mark.parametrize("workers", [1])
    def test_n_factorial_suites_start_no_pool(self, serial_pool, workers):
        claims = verify(["symmetry", "phi_theta"], 4, workers=workers)
        assert all(claim().passed for claim in claims)
        assert serial_pool.sizes == []

    def test_n_factorial_claims_share_the_plan_pool(self, monkeypatch, serial_pool):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        claims = verify(["symmetry", "phi_theta"], 4, workers=64)
        assert all(claim().passed for claim in claims)
        # one task per claim, and one process per task queued
        assert serial_pool.sizes == [8]
        assert serial_pool.events == ["start", "close"]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_claims_run_the_tasks_their_plan_queued(self, monkeypatch, serial_pool, workers):
        # Each claim's tasks are derived once, when the plan is made: a
        # search patched in after that is never run, in this process or on
        # the pool.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        claims = verify(["count"], 5, workers=workers)

        def rederived(task):
            raise AssertionError(f"task {task} derived after planning")

        monkeypatch.setattr(enumeration, "_reverse_stable", rederived)
        assert all(claim().passed for claim in claims)
        assert serial_pool.sizes == ([2] if workers == 2 else [])

    def test_one_process_claim_can_run_again(self, monkeypatch):
        monkeypatch.setattr(enumeration, "_relations_failure", lambda n: f"planted {n}")
        claim = verify(["symmetry"], 3)[2]
        assert [claim().detail for _ in range(2)] == ["planted 3"] * 2

    def test_pooled_claim_can_run_again(self, monkeypatch):
        # On a real fork pool, a claim called again reports from the
        # plan's store: no reply is taken twice.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        with verify(["symmetry"], 3, workers=2) as plan:
            assert plan.size == 2
            first, again = plan[0](), plan[0]()
        assert again._replace(elapsed_ms=0) == first._replace(elapsed_ms=0)

    def test_claims_called_again_take_nothing_more(self, monkeypatch, serial_pool):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        taken = []
        real = serial_pool.take
        monkeypatch.setattr(serial_pool, "take", lambda self, i: taken.append(i) or real(self, i))
        claims = verify(["symmetry"], 3, workers=2)
        first = [claim() for claim in claims]
        again = [claim() for claim in claims]
        # the largest group is queued first, so S_1's scan is task 2
        assert taken == [2, 1, 0]
        assert serial_pool.events == ["start", "close"]
        assert [r._replace(elapsed_ms=0) for r in again] == [
            r._replace(elapsed_ms=0) for r in first
        ]

    def test_one_process_claim_runs_its_scan_once(self, monkeypatch):
        runs = []
        monkeypatch.setattr(enumeration, "_relations_failure", runs.append)
        claim = verify(["symmetry"], 3)[2]
        assert [claim().passed for _ in range(2)] == [True, True]
        assert runs == [3]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_elapsed_counts_run_time_not_waiting(self, monkeypatch, serial_pool, workers):
        # Each task reports a run time of 2 s where it ran, in this process
        # for one worker and on the pool for two.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(enumeration, "_timed", lambda run, arg: (run(arg), 2.0))
        reports = [claim() for claim in verify(["count", "symmetry"], 3, workers=workers)]
        # R_1 has no task, R_2 one and R_3 three
        assert [r.elapsed_ms // 1000 for r in reports] == [0, 2, 6, 2, 2, 2]


def test_more_workers_than_cores_share_the_task_pipe(monkeypatch):
    # Eight forked workers on this machine's cores read task numbers from
    # one pipe; a number lost or read twice would change or stall a report.
    alone = [claim() for claim in verify(SUITES, 6)]
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    pooled = [claim() for claim in verify(SUITES, 6, workers=8)]
    assert [r._replace(elapsed_ms=0, workers=1) for r in pooled] == [
        r._replace(elapsed_ms=0) for r in alone
    ]


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
        assert {t[0] for t in members} == {
            (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 5),
        }
        assert all(is_in_M(t) for t in members)

    def test_fixed_tableaux_even_empty(self):
        assert list_set("M", 4) == []

    def test_hook_shaped_s3(self):
        members = list_set("H", 3)
        assert members == [
            (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2),
        ]

    def test_lexicographic_order_and_worker_stability(self):
        single = list_set("R", 5)
        assert single == sorted(single)
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
            enumeration, "_reverse_stable_members", lambda n, pool: searched.append(n)
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

    @pytest.mark.parametrize(
        "n, message", [(10, "outside the configured range"), (0, "size must be positive, got 0")]
    )
    def test_range(self, n, message):
        with pytest.raises(ValueError, match=message):
            verify_R_transport(n)


class TestVerifyEngine:
    def record_builds(self, monkeypatch):
        built = []
        real = enumeration._reverse_stable_members

        def recorder(n, pool):
            built.append(n)
            return real(n, pool)

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

    def test_memo_lives_for_one_plan(self, monkeypatch, serial_pool):
        built = self.record_builds(monkeypatch)
        for _ in range(2):
            [claim() for claim in verify(["count", "transport"], 3, workers=2)]
        assert sorted(built) == [1, 1, 2, 2, 3, 3]
        assert serial_pool.events == ["start", "close"] * 2

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

    @pytest.mark.parametrize("suites", [["symmetry"], ["phi_theta"], ["transport"]])
    def test_empty_run_rejected(self, suites):
        # A run with no claim would pass vacuously.
        with pytest.raises(ValueError, match="n_max must be at least 1, got 0"):
            verify(suites, 0)

    @pytest.mark.parametrize("suites, n_max", [(["transport"], 1), (["transport"], 2), ([], 5)])
    def test_plan_without_claims_rejected(self, suites, n_max):
        # Transport sources run to n_max - 2, so these plans would pass vacuously.
        with pytest.raises(ValueError, match=f"^n_max={n_max} leaves no claim to check$"):
            verify(suites, n_max)


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
