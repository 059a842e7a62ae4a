"""Every verification suite can fail.

Each test plants a bug in one dependency, as `rskcheck.enumeration` sees
it, and checks that the suite reports the failure with the exact detail
line it has always given. Running each case at one and at two workers
pins the rule that the first failure in rank order is the one reported.
"""

import pytest

from rskcheck import cli, enumeration
from rskcheck.permutations import Permutation

real_phi = enumeration.phi
real_same_recording_tableau = enumeration.same_recording_tableau
real_theta = enumeration.theta

WORKERS = pytest.mark.parametrize("workers", [1, 2])


def failures(reports):
    return [(r.n, r.observed, r.detail) for r in reports if not r.passed]


def lockstep_one_step_short(u, v):
    """Compares every recording step but the last."""
    return real_same_recording_tableau(list(u)[:-1], list(v)[:-1])


def theta_reversed(w):
    return real_theta(w).reverse()


def theta_identity(w):
    """Forgets the interior order: always the identity two sizes down."""
    return Permutation(range(1, w.n - 1))


def phi_fixed_endpoints(w, a, b):
    """Ignores the requested endpoints and always lifts with (1, n+2)."""
    return real_phi(w, 1, w.n + 2)


def phi_repeats_a_letter(w, a, b):
    """Ends a lift with adjacent endpoints by its first letter again.
    theta still undoes it, since no interior value lies between them."""
    lifted = real_phi(w, a, b)
    if abs(a - b) == 1:
        return Permutation._trusted(lifted.entries[:-1] + (a,))
    return lifted


@WORKERS
def test_count_fails_on_short_lockstep(monkeypatch, workers):
    monkeypatch.setattr(enumeration, "same_recording_tableau", lockstep_one_step_short)
    reports = enumeration.verify_count_theorem(4, workers=workers)
    assert failures(reports) == [(2, 2, None)]


@WORKERS
def test_count_fails_when_every_leaf_passes(monkeypatch, workers):
    # Only the words the two-ended search completes reach the leaf
    # verdict, and it judges one word of each reversal pair: 1, 3 and 6
    # words of S_2, S_3 and S_4. Each is recorded together with its
    # reverse, which gives the counts 2, 6 and 12.
    monkeypatch.setattr(enumeration, "same_recording_tableau", lambda u, v: True)
    reports = enumeration.verify_count_theorem(4, workers=workers)
    assert failures(reports) == [(2, 2, None), (3, 6, None), (4, 12, None)]


def test_count_failure_reaches_the_cli(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(enumeration, "same_recording_tableau", lockstep_one_step_short)
    out_file = tmp_path / "reports.jsonl"
    code = cli.main(
        ["verify", "--count", "--n-max", "3", "--workers", "2", "--out", str(out_file)]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert [line.split()[:3] for line in out.splitlines()] == [
        ["PASS", "count_R", "n=1"],
        ["FAIL", "count_R", "n=2"],
        ["PASS", "count_R", "n=3"],
    ]


@WORKERS
def test_characterization_fails_without_first_row_property(monkeypatch, workers):
    monkeypatch.setattr(enumeration, "satisfies_first_row_property", lambda t: False)
    reports = enumeration.verify_characterization(5, workers=workers)
    assert failures(reports) == [
        (1, False, "first counterexample: 1"),
        (3, False, "first counterexample: 1 3 2"),
        (5, False, "first counterexample: 1 2 5 4 3"),
    ]


@WORKERS
def test_characterization_fails_with_trivial_first_row_property(monkeypatch, workers):
    monkeypatch.setattr(enumeration, "satisfies_first_row_property", lambda t: True)
    reports = enumeration.verify_characterization(5, workers=workers)
    assert failures(reports) == [(5, False, "first counterexample: 1 4 3 2 5")]


@WORKERS
def test_characterization_fails_when_every_leaf_passes(monkeypatch, workers):
    # The R side is the pruned search, so the words it reports are its
    # completed leaves: at n = 4 that is 1 2 4 3, where a rank scan would
    # report 1 2 3 4.
    monkeypatch.setattr(enumeration, "same_recording_tableau", lambda u, v: True)
    reports = enumeration.verify_characterization(5, workers=workers)
    assert failures(reports) == [
        (2, False, "first counterexample: 1 2"),
        (3, False, "first counterexample: 1 2 3"),
        (4, False, "first counterexample: 1 2 4 3"),
        (5, False, "first counterexample: 1 2 3 5 4"),
    ]


@WORKERS
def test_symmetry_fails_with_identity_evacuation(monkeypatch, workers):
    monkeypatch.setattr(enumeration, "evacuation", lambda t: t)
    reports = [
        enumeration.verify_symmetry_relations(n, workers=workers) for n in range(1, 6)
    ]
    assert failures(reports) == [
        (3, False, "complement relation fails for 1 3 2"),
        (4, False, "complement relation fails for 1 2 4 3"),
        (5, False, "complement relation fails for 1 2 3 5 4"),
    ]


@WORKERS
def test_symmetry_failure_reaches_the_cli(capsys, monkeypatch, tmp_path, workers):
    monkeypatch.setattr(enumeration, "evacuation", lambda t: t)
    code = cli.main(
        [
            "verify",
            "--symmetry",
            "--n-max",
            "3",
            "--workers",
            str(workers),
            "--out",
            str(tmp_path / "reports.jsonl"),
        ]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert [line.split()[:3] for line in out.splitlines()] == [
        ["PASS", "symmetry_relations", "n=1"],
        ["PASS", "symmetry_relations", "n=2"],
        ["FAIL", "symmetry_relations", "n=3"],
        ["complement", "relation", "fails"],
    ]
    assert out.splitlines()[-1].strip() == "complement relation fails for 1 3 2"


@WORKERS
def test_phi_theta_fails_when_projection_misses(monkeypatch, workers):
    monkeypatch.setattr(enumeration, "theta", theta_reversed)
    reports = [enumeration.verify_phi_theta(n, workers=workers) for n in range(1, 4)]
    assert failures(reports) == [
        (2, False, "projection fails to undo lift (1,2) of 1 2"),
        (3, False, "projection fails to undo lift (1,2) of 1 2 3"),
    ]


@WORKERS
def test_phi_theta_fails_when_lifts_collide(monkeypatch, workers):
    monkeypatch.setattr(enumeration, "phi", phi_fixed_endpoints)
    reports = [enumeration.verify_phi_theta(n, workers=workers) for n in range(1, 4)]
    assert failures(reports) == [
        (1, False, "lift images cover 1 of 6 permutations"),
        (2, False, "lift images cover 2 of 24 permutations"),
        (3, False, "lift images cover 6 of 120 permutations"),
    ]


@WORKERS
def test_phi_theta_fails_when_a_lift_repeats_a_letter(monkeypatch, workers):
    # 2(n+1) of the (n+2)(n+1) lifts of each word of S_n are no words of
    # S_{n+2}, so they cover nothing.
    monkeypatch.setattr(enumeration, "phi", phi_repeats_a_letter)
    reports = [enumeration.verify_phi_theta(n, workers=workers) for n in range(1, 4)]
    assert failures(reports) == [
        (1, False, "lift images cover 2 of 6 permutations"),
        (2, False, "lift images cover 12 of 24 permutations"),
        (3, False, "lift images cover 72 of 120 permutations"),
    ]


@WORKERS
def test_phi_theta_failure_reaches_the_cli(capsys, monkeypatch, tmp_path, workers):
    monkeypatch.setattr(enumeration, "phi", phi_repeats_a_letter)
    code = cli.main(
        [
            "verify",
            "--phi-theta",
            "--n-max",
            "2",
            "--workers",
            str(workers),
            "--out",
            str(tmp_path / "reports.jsonl"),
        ]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert [line.split()[:3] for line in out.splitlines()] == [
        ["FAIL", "phi_theta", "n=1"],
        ["lift", "images", "cover"],
        ["FAIL", "phi_theta", "n=2"],
        ["lift", "images", "cover"],
    ]


@WORKERS
def test_transport_fails_when_lift_does_not_reassemble(monkeypatch, workers):
    monkeypatch.setattr(enumeration, "theta", theta_reversed)
    reports = [enumeration.verify_R_transport(n, workers=workers) for n in range(1, 5)]
    assert failures(reports) == [
        (3, False, "endpoint lift does not reassemble 1 2 5 4 3"),
    ]


@WORKERS
def test_transport_fails_when_projection_leaves_R(monkeypatch, workers):
    monkeypatch.setattr(enumeration, "theta", theta_identity)
    reports = [enumeration.verify_R_transport(n, workers=workers) for n in range(1, 5)]
    assert failures(reports) == [
        (3, False, "projection of 1 2 5 4 3 leaves the reverse-stable set"),
    ]
