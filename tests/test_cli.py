import concurrent.futures
import contextlib
import errno
import io
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import rskcheck
from rskcheck import cli, enumeration


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


TEST_PROCESS = os.getpid()
real_reverse_stable = enumeration._reverse_stable


def die_in_a_pool_worker(task):
    """The R search, except that a pool worker ends at once, as a crash
    would. Defined at module level so that the pool can pickle it."""
    if os.getpid() != TEST_PROCESS:
        os._exit(1)
    return real_reverse_stable(task)


def end_the_pool_worker(n):
    """A whole symmetry or phi/theta claim that ends the pool worker running
    it at once, as a crash would. Only a pool runs it."""
    assert os.getpid() != TEST_PROCESS
    os._exit(1)


def ignores_interrupts(task):
    """Stands in for a search task and reports whether the process that
    runs it ignores Ctrl-C. Defined at module level so that the pool can
    pickle it."""
    return [(signal.getsignal(signal.SIGINT) is signal.SIG_IGN,)]


class TestRskCommand:
    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "rsk", "52314", "--json")
        assert code == 0
        assert out == '{"P":[[1,3,4],[2],[5]],"Q":[[1,3,5],[2],[4]]}\n'

    def test_text_side_by_side(self, capsys):
        code, out, _ = run_cli(capsys, "rsk", "52314")
        assert code == 0
        assert out.splitlines() == [
            "P:       Q:",
            "1 3 4    1 3 5",
            "2        2",
            "5        4",
        ]

    def test_multi_token_permutation(self, capsys):
        code, out, _ = run_cli(capsys, "rsk", "5", "2", "3", "1", "4", "--json")
        assert code == 0
        assert json.loads(out)["Q"] == [[1, 3, 5], [2], [4]]


class TestEvacCommand:
    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "evac", "[[1,3,5],[2],[4]]", "--json")
        assert code == 0
        assert out == (
            '{"result":[[1,2,4],[3],[5]],'
            '"vacated_cells":[[3,1],[1,3],[2,1],[1,2],[1,1]]}\n'
        )

    def test_text(self, capsys):
        code, out, _ = run_cli(capsys, "evac", "[[1,3,5],[2],[4]]")
        assert code == 0
        assert "1 2 4" in out
        assert "vacated: (3,1) (1,3) (2,1) (1,2) (1,1)" in out

    def test_rows_object_form(self, capsys):
        code, out, _ = run_cli(capsys, "evac", '{"rows": [[1,3,5],[2],[4]]}', "--json")
        assert code == 0
        assert json.loads(out)["result"] == [[1, 2, 4], [3], [5]]

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "tableau.json"
        path.write_text('{"rows": [[1,3,5],[2],[4]]}')
        code, out, _ = run_cli(capsys, "evac", str(path), "--json")
        assert code == 0
        assert json.loads(out)["result"] == [[1, 2, 4], [3], [5]]

    def test_file_path_with_a_trailing_slash(self, capsys, tmp_path):
        path = tmp_path / "tableau.json"
        path.write_text("[[1,3,5],[2],[4]]")
        code, out, _ = run_cli(capsys, "evac", f"{path}/", "--json")
        assert code == 0
        assert json.loads(out)["result"] == [[1, 2, 4], [3], [5]]


class TestDeltaCommand:
    def test_standard_tableau(self, capsys):
        code, out, _ = run_cli(capsys, "delta", "[[1,3,5],[2],[4]]", "--json")
        assert code == 0
        assert out == '{"result":[[2,3,5],[4]],"vacated_cell":[3,1]}\n'

    def test_partial_grid(self, capsys):
        code, out, _ = run_cli(capsys, "delta", "[[2,3,5],[4]]", "--json")
        assert code == 0
        assert out == '{"result":[[3,5],[4]],"vacated_cell":[1,3]}\n'


class TestPhiThetaCommands:
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            (1, 2, [1, 7, 4, 5, 3, 6, 2]),
            (1, 7, [1, 6, 3, 4, 2, 5, 7]),
            (5, 3, [5, 7, 2, 4, 1, 6, 3]),
            (3, 5, [3, 7, 2, 4, 1, 6, 5]),
        ],
    )
    def test_phi_json(self, capsys, a, b, expected):
        code, out, _ = run_cli(
            capsys, "phi", "--a", str(a), "--b", str(b), "52314", "--json"
        )
        assert code == 0
        assert json.loads(out) == {"result": expected}

    def test_phi_text(self, capsys):
        code, out, _ = run_cli(capsys, "phi", "--a", "1", "--b", "7", "52314")
        assert code == 0
        assert out == "1 6 3 4 2 5 7\n"

    def test_theta_json(self, capsys):
        code, out, _ = run_cli(capsys, "theta", "1634257", "--json")
        assert code == 0
        assert json.loads(out) == {"result": [5, 2, 3, 1, 4]}

    def test_theta_text(self, capsys):
        code, out, _ = run_cli(capsys, "theta", "52314")
        assert code == 0
        assert out == "2 3 1\n"


class TestCheckCommand:
    def test_positive_consistent(self, capsys):
        code, out, _ = run_cli(capsys, "check", "52314", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["in_R"] is True
        assert payload["characterization"] is True
        assert payload["agrees"] is True
        assert payload["Q"] == [[1, 3, 5], [2], [4]]
        assert payload["Q_of_reverse"] == [[1, 3, 5], [2], [4]]

    def test_negative_check_exits_one(self, capsys):
        code, out, _ = run_cli(capsys, "check", "52341", "--json")
        assert code == 1
        payload = json.loads(out)
        assert payload["in_R"] is False
        assert payload["in_H"] is True
        assert payload["first_row_property"] is False
        assert payload["agrees"] is True

    def test_text_mode(self, capsys):
        code, out, _ = run_cli(capsys, "check", "52314")
        assert code == 0
        assert "definition and characterization agree: True" in out


class TestEnumerateCommand:
    def test_count_with_formula(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--set", "R", "--n", "5", "--json")
        assert code == 0
        assert json.loads(out) == {"set": "R", "n": 5, "count": 24, "formula": 24}

    def test_count_text(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--set", "R", "--n", "5")
        assert code == 0
        assert out == "|R_5| = 24 (formula: 24)\n"

    def test_list_members(self, capsys):
        code, out, _ = run_cli(
            capsys, "enumerate", "--set", "R", "--n", "3", "--list", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["members"] == [[1, 3, 2], [2, 1, 3], [2, 3, 1], [3, 1, 2]]

    def test_even_m_count_notes_emptiness(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--set", "M", "--n", "6", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 0
        assert "note" in payload

    def test_m_list(self, capsys):
        code, out, _ = run_cli(
            capsys, "enumerate", "--set", "M", "--n", "5", "--list", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["members"]) == 4
        assert [[1, 2, 3], [4], [5]] in payload["members"]

    def test_workers_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "enumerate", "--set", "R", "--n", "6", "--workers", "2", "--json"
        )
        assert code == 0
        assert json.loads(out)["count"] == 0


class TestVerifyCommand:
    def test_count_suite(self, capsys, tmp_path):
        out_file = tmp_path / "reports.jsonl"
        code, out, _ = run_cli(
            capsys, "verify", "--count", "--n-max", "5", "--out", str(out_file)
        )
        assert code == 0
        assert out.count("PASS count_R") == 5
        lines = out_file.read_text().splitlines()
        assert len(lines) == 5
        assert [json.loads(line)["observed"] for line in lines] == [1, 0, 4, 0, 24]

    def test_json_output_is_one_report_per_line(self, capsys, tmp_path):
        out_file = tmp_path / "reports.jsonl"
        code, out, _ = run_cli(
            capsys, "verify", "--count", "--n-max", "3", "--json", "--out", str(out_file)
        )
        assert code == 0
        parsed = [json.loads(line) for line in out.splitlines()]
        assert [p["n"] for p in parsed] == [1, 2, 3]

    def test_out_file_appends(self, capsys, tmp_path):
        out_file = tmp_path / "reports.jsonl"
        run_cli(capsys, "verify", "--count", "--n-max", "3", "--out", str(out_file))
        run_cli(capsys, "verify", "--count", "--n-max", "3", "--out", str(out_file))
        assert len(out_file.read_text().splitlines()) == 6

    def test_all_suites_small(self, capsys, tmp_path):
        out_file = tmp_path / "reports.jsonl"
        code, out, _ = run_cli(
            capsys, "verify", "--all", "--n-max", "3", "--out", str(out_file)
        )
        assert code == 0
        checks = {json.loads(line)["check"] for line in out_file.read_text().splitlines()}
        assert checks == {
            "count_R",
            "characterization",
            "symmetry_relations",
            "phi_theta",
            "r_transport",
        }

    def test_failing_report_exits_one(self, capsys, tmp_path, monkeypatch):
        failing = enumeration.VerificationReport(
            check="count_R",
            n=3,
            observed=3,
            expected=4,
            formula=4,
            passed=False,
            elapsed_ms=0,
            workers=1,
        )

        monkeypatch.setattr(enumeration, "verify", lambda *a, **k: [lambda: failing])
        out_file = tmp_path / "reports.jsonl"
        code, out, _ = run_cli(
            capsys, "verify", "--count", "--n-max", "3", "--out", str(out_file)
        )
        assert code == 1
        assert "FAIL" in out


    def test_suite_caps_come_from_the_library(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(enumeration, "SYMMETRY_MAX_N", 2)
        monkeypatch.setattr(enumeration, "PHI_THETA_MAX_N", 1)
        out_file = tmp_path / "reports.jsonl"
        code, out, _ = run_cli(
            capsys,
            "verify", "--symmetry", "--phi-theta", "--transport",
            "--n-max", "5", "--json", "--out", str(out_file),
        )
        assert code == 0
        assert [(r["check"], r["n"]) for r in map(json.loads, out.splitlines())] == [
            ("symmetry_relations", 1),
            ("symmetry_relations", 2),
            ("phi_theta", 1),
            ("r_transport", 1),
            ("r_transport", 2),
            ("r_transport", 3),
        ]

    def test_each_R_n_is_built_once_per_run(self, capsys, tmp_path, monkeypatch):
        built = []
        real = enumeration._reverse_stable_members

        def recorder(n, pool):
            built.append(n)
            return real(n, pool)

        monkeypatch.setattr(enumeration, "_reverse_stable_members", recorder)
        out_file = tmp_path / "reports.jsonl"
        code, _, _ = run_cli(
            capsys, "verify", "--all", "--n-max", "9", "--out", str(out_file)
        )
        assert code == 0
        assert sorted(built) == list(range(1, 10))

    def test_range_checks_come_before_any_sweep(self, capsys, tmp_path, monkeypatch):
        swept = []
        real = enumeration.permutations
        monkeypatch.setattr(
            enumeration, "permutations", lambda *args: swept.append(args) or real(*args)
        )
        out_file = tmp_path / "reports.jsonl"
        argv = ["verify", "--symmetry", "--transport", "--n-max", "9", "--max-n", "5"]
        code, out, err = run_cli(capsys, *argv, "--out", str(out_file))
        assert (code, out, err) == (2, "", "error: n=6 outside the configured range [1, 5]\n")
        assert swept == []
        assert not out_file.exists()

    @pytest.mark.parametrize("as_json", [False, True])
    def test_reports_stream_until_interrupted(self, capsys, tmp_path, monkeypatch, as_json):
        def interrupt(n, *, workers=1):
            raise KeyboardInterrupt

        monkeypatch.setattr(enumeration, "verify_phi_theta", interrupt)
        out_file = tmp_path / "reports.jsonl"
        try:
            code, out, err = run_cli(
                capsys,
                "verify", "--count", "--phi-theta", "--n-max", "2", "--workers", "1",
                "--out", str(out_file), *(["--json"] if as_json else []),
            )
        except KeyboardInterrupt:
            pytest.fail("KeyboardInterrupt escaped cli.main")
        assert (code, err) == (130, "error: interrupted\n")
        lines = out_file.read_text().splitlines()
        assert [(r["check"], r["n"]) for r in map(json.loads, lines)] == [
            ("count_R", 1),
            ("count_R", 2),
        ]
        assert out.endswith("\n")
        if as_json:
            assert out.splitlines() == lines
        else:
            assert [line.split()[:3] for line in out.splitlines()] == [
                ["PASS", "count_R", "n=1"],
                ["PASS", "count_R", "n=2"],
            ]

    @pytest.mark.parametrize("as_json", [False, True])
    def test_dead_worker_exit_3(self, capsys, tmp_path, monkeypatch, as_json):
        # The worker dies in an R pair task, or in a whole symmetry or
        # phi/theta claim queued before them. R_1 needs no task, so count_R
        # at n = 1 reports; count_R at n = 2 waits on the broken pool.
        deaths = [
            ("_reverse_stable", die_in_a_pool_worker, []),
            ("_relations_failure", end_the_pool_worker, ["--symmetry"]),
            ("_phi_theta_failure", end_the_pool_worker, ["--phi-theta"]),
        ]
        for name, death, suites in deaths:
            out_file = tmp_path / f"{name}.jsonl"
            with monkeypatch.context() as patch:
                patch.setattr(enumeration, name, death)
                code, out, err = run_cli(
                    capsys,
                    "verify", "--count", *suites, "--n-max", "3", "--workers", "2",
                    "--out", str(out_file), *(["--json"] if as_json else []),
                )
            assert (code, err) == (3, "error: a search worker ended abruptly\n")
            lines = out_file.read_text().splitlines()
            assert [(r["check"], r["n"]) for r in map(json.loads, lines)] == [("count_R", 1)]
            if as_json:
                assert out.splitlines() == lines
            else:
                assert [line.split()[:3] for line in out.splitlines()] == [
                    ["PASS", "count_R", "n=1"]
                ]

    def test_one_pool_per_run(self, capsys, tmp_path, monkeypatch):
        started = []

        class RecordingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                started.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        out_file = tmp_path / "reports.jsonl"
        code, out, _ = run_cli(
            capsys,
            "verify", "--all", "--n-max", "8", "--workers", "2", "--json", "--out", str(out_file),
        )
        assert (code, len(out.splitlines())) == (0, 35)
        assert len(started) == 1
        reports = [claim() for claim in enumeration.verify(["count"], 9, workers=2)]
        assert [r.observed for r in reports][-1] == 1120
        assert len(started) == 2

    def test_pool_workers_ignore_interrupts(self, monkeypatch):
        monkeypatch.setattr(enumeration, "_reverse_stable", ignores_interrupts)
        assert enumeration._search_alone(3, 2) == [(True,)] * 3
        # one worker searches in this process, which keeps its handler
        assert enumeration._search_alone(3, 1) == [(False,)] * 3

    def test_tasks_are_queued_with_interrupts_blocked(self, monkeypatch):
        # A KeyboardInterrupt inside the executor's locking could leave a
        # lock held, and closing the pool would then hang.
        def interrupts_blocked():
            return signal.SIGINT in signal.pthread_sigmask(signal.SIG_BLOCK, ())

        blocked = []

        class RecordingPool(concurrent.futures.ProcessPoolExecutor):
            def submit(self, *args, **kwargs):
                blocked.append(interrupts_blocked())
                return super().submit(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        assert len(enumeration._search_alone(5, 2)) == 24
        assert blocked == [True] * 10  # one task per pair of end letters
        assert not interrupts_blocked()

    def test_interrupt_ends_a_pooled_run_without_worker_tracebacks(self, tmp_path):
        # A terminal's Ctrl-C goes to the whole process group, pool workers
        # included; only the CLI process may report it.
        argv = ["verify", "--count", "--n-max", "10", "--workers", "2"]
        proc = subprocess.Popen(
            [sys.executable, "-m", "rskcheck", *argv, "--out", str(tmp_path / "r.jsonl")],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            # R_9 and R_10 are still to search once the n = 8 report is out
            for n in range(1, 9):
                assert f"n={n} " in proc.stdout.readline()
            os.killpg(proc.pid, signal.SIGINT)
            _, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
        assert (proc.returncode, err) == (130, "error: interrupted\n")

    def test_pool_workers_end_when_the_cli_is_killed(self, tmp_path):
        # A CLI killed by a signal it cannot handle never closes its pool;
        # its workers must still not outlive it.
        argv = ["verify", "--count", "--n-max", "10", "--workers", "2"]
        proc = subprocess.Popen(
            [sys.executable, "-m", "rskcheck", *argv, "--out", str(tmp_path / "r.jsonl")],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            # the pool is running by the n = 2 report
            for n in range(1, 4):
                assert f"n={n} " in proc.stdout.readline()
            proc.kill()
            # reap only the CLI: its workers hold its pipes open
            proc.wait(timeout=60)
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                try:
                    os.killpg(proc.pid, 0)
                except ProcessLookupError:
                    break
                time.sleep(0.1)
            else:
                pytest.fail("pool workers outlived the killed CLI")
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()


    def test_exit_with_the_pool_open_cancels_the_queued_tasks(self, tmp_path):
        # An error or a Ctrl-C between two claims leaves the plan's pool
        # open with tasks queued; the process must not run them all first.
        ran = tmp_path / "ran"
        script = f"""
import sys, time
from rskcheck import enumeration

def slow(task):
    with open({str(ran)!r}, "a") as log:
        log.write("x")
    time.sleep(0.2)
    return []

enumeration._reverse_stable = slow
claims = enumeration.verify(["count"], 10, workers=2)
claims[0]()
sys.exit(3)
"""
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 3, result.stderr
        # R_2 to R_10 queue 165 tasks; only those already started may run
        assert len(ran.read_text() if ran.exists() else "") < 10


class TestErrorPaths:
    def test_malformed_permutation_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "rsk", "1", "1", "2")
        assert code == 2
        assert out == ""
        assert err == "error: duplicate value 1 at position 2\n"

    def test_malformed_permutation_json_error_object(self, capsys):
        code, out, err = run_cli(capsys, "rsk", "1", "1", "2", "--json")
        assert code == 2
        assert json.loads(out) == {"error": "duplicate value 1 at position 2"}
        assert err.startswith("error:")

    def test_malformed_tableau_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "evac", "[[2,1]]")
        assert code == 2
        assert "row order violated" in err

    @pytest.mark.parametrize("command", ["evac", "delta"])
    @pytest.mark.parametrize(
        "source, message",
        [
            ("[1,2]", "tableau row 1 must be a JSON list, got 1"),
            ('[{"a":1}]', 'tableau row 1 must be a JSON list, got {"a": 1}'),
            ('{"rows":[[1],2]}', "tableau row 2 must be a JSON list, got 2"),
        ],
    )
    def test_tableau_row_not_a_list_exit_2(self, capsys, command, source, message):
        code, out, err = run_cli(capsys, command, source)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"
        code, out, err = run_cli(capsys, command, source, "--json")
        assert code == 2
        assert json.loads(out) == {"error": message}
        assert err == f"error: {message}\n"

    def assert_exit_2(self, capsys, argv, message):
        """Text mode and --json both exit 2 with the one-line diagnostic."""
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")
        code, out, err = run_cli(capsys, *argv, "--json")
        assert code == 2
        assert json.loads(out) == {"error": message}
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("command", ["evac", "delta"])
    def test_deeply_nested_tableau_file_exit_2(self, capsys, tmp_path, command):
        source = tmp_path / "deep.json"
        source.write_text("[" * 100_000 + "]" * 100_000)
        message = "invalid tableau JSON: nested too deeply"
        self.assert_exit_2(capsys, [command, str(source)], message)

    @pytest.mark.parametrize("command", ["evac", "delta"])
    def test_tableau_source_is_a_directory_exit_2(self, capsys, tmp_path, command):
        message = f"cannot read tableau file {tmp_path}: {os.strerror(errno.EISDIR)}"
        self.assert_exit_2(capsys, [command, str(tmp_path)], message)

    @pytest.mark.parametrize("command", ["evac", "delta"])
    def test_blank_tableau_source_names_the_current_directory(self, capsys, command):
        message = f"cannot read tableau file : {os.strerror(errno.EISDIR)}"
        self.assert_exit_2(capsys, [command, " "], message)

    @pytest.mark.parametrize("target", ["missing", "directory"])
    def test_report_file_cannot_be_opened_exit_2(self, capsys, tmp_path, monkeypatch, target):
        built = []
        monkeypatch.setattr(
            enumeration, "_reverse_stable_members", lambda n, pool: built.append(n)
        )
        if target == "missing":
            out, reason = tmp_path / "no-such-dir" / "x.jsonl", os.strerror(errno.ENOENT)
        else:
            out, reason = tmp_path, os.strerror(errno.EISDIR)
        message = f"cannot open report file {out}: {reason}"
        self.assert_exit_2(capsys, ["verify", "--count", "--n-max", "3", "--out", str(out)], message)
        assert built == []

    def test_missing_tableau_file(self, capsys):
        code, _, err = run_cli(capsys, "evac", "no-such-file.json")
        assert code == 2
        assert "not found" in err

    def test_out_of_range_n_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "enumerate", "--set", "R", "--n", "12")
        assert code == 2
        assert "outside the configured range" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["enumerate", "--set", "R", "--n", "14", "--list", "--list-max", "14"],
             "n=14 outside the configured range [1, 11]"),
            (["enumerate", "--set", "H", "--n", "23", "--list", "--list-max", "30"],
             "n=23 outside the configured range [1, 11]"),
            (["enumerate", "--set", "R", "--n", "6", "--list", "--max-n", "5"],
             "n=6 outside the configured range [1, 5]"),
        ],
    )
    def test_listing_out_of_range_n_exit_2(self, capsys, monkeypatch, argv, message):
        searched = []
        monkeypatch.setattr(
            enumeration, "_reverse_stable_members", lambda n, pool: searched.append(n)
        )
        self.assert_exit_2(capsys, argv, message)
        assert searched == []

    def test_non_ascii_separated_permutation_exit_2(self, capsys):
        message = "invalid integer '３' in permutation text"
        self.assert_exit_2(capsys, ["theta", "３ １ ２ ５ ４"], message)

    def test_invalid_phi_parameters(self, capsys):
        code, _, err = run_cli(capsys, "phi", "--a", "2", "--b", "2", "1", "--json")
        assert code == 2
        assert "must differ" in err

    def test_phi_result_over_the_size_bound_exit_2(self, capsys):
        identity = " ".join(map(str, range(1, 20)))
        code, out, err = run_cli(capsys, "phi", "--a", "1", "--b", "2", identity)
        assert code == 2
        assert out == ""
        assert err == "error: size 21 exceeds the supported maximum 20\n"
        code, out, err = run_cli(capsys, "phi", "--a", "1", "--b", "2", identity, "--json")
        assert code == 2
        assert json.loads(out) == {"error": "size 21 exceeds the supported maximum 20"}
        assert err.startswith("error:")

    @pytest.mark.parametrize("workers", ["0", "-1"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--n-max", "3"],
            ["verify", "--symmetry", "--n-max", "2"],
            ["enumerate", "--set", "R", "--n", "3"],
            ["enumerate", "--set", "H", "--n", "3", "--list"],
            ["verify", "--transport", "--n-max", "2"],  # no sweep to run
            ["enumerate", "--set", "M", "--n", "3"],  # M takes no sweep
        ],
    )
    def test_workers_below_one_exit_2(self, capsys, tmp_path, argv, workers):
        out_file = tmp_path / "reports.jsonl"
        extra = ["--out", str(out_file)] if argv[0] == "verify" else []
        code, out, err = run_cli(capsys, *argv, "--workers", workers, *extra)
        assert code == 2
        assert out == ""
        assert err == f"error: workers must be at least 1, got {workers}\n"
        assert not out_file.exists()

    def test_unknown_command_exit_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["frobnicate"])
        assert excinfo.value.code == 2


json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(),
    st.integers(),
    st.integers(min_value=2**64),
    st.text(max_size=4),
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=16,
)
tableau_like = st.lists(st.lists(st.integers(-1, 10), max_size=4), max_size=4)
tableau_sources = st.one_of(
    json_values,
    tableau_like,
    st.lists(json_values, max_size=4),
    st.builds(lambda rows: {"rows": rows}, json_values | tableau_like),
).map(json.dumps)
permutation_texts = st.one_of(
    st.text(max_size=30),
    st.builds(
        lambda values, sep: sep.join(map(str, values)),
        st.lists(st.integers(-2, 25), max_size=12),
        st.sampled_from([" ", ",", ""]),
    ),
)


def run_in_process(argv):
    """The exit code, stdout and stderr of one CLI call, and whether it
    left through SystemExit, as argparse's own usage errors do."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return cli.main(argv), out.getvalue(), err.getvalue(), False
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue(), True


def assert_clean_exit(argv):
    """A result with output, or exit 2 with exactly one error line; any
    other exception propagates and fails the calling test."""
    code, out, err, argparse_exit = run_in_process(argv)
    if code != 2:
        assert code in (0, 1)
        assert out
    elif argparse_exit:
        assert [line for line in err.splitlines() if "error: " in line] == err.splitlines()[-1:]
    else:
        assert err.startswith("error: ")
        assert err.count("\n") == 1


class TestBoundaryFuzzing:
    @given(st.sampled_from(["evac", "delta"]), tableau_sources, st.booleans())
    def test_tableau_sources(self, command, source, as_json):
        assert_clean_exit([command, source, *(["--json"] if as_json else [])])

    @given(permutation_texts, st.booleans())
    def test_check_texts(self, text, as_json):
        assert_clean_exit(["check", text, *(["--json"] if as_json else [])])


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        result = subprocess.run(
            [sys.executable, "-m", "rskcheck", "rsk", "52314", "--json"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert result.stdout == '{"P":[[1,3,4],[2],[5]],"Q":[[1,3,5],[2],[4]]}\n'

    @staticmethod
    def loaded_by_cli_import(modules):
        """Those of `modules` that a fresh interpreter has loaded after
        `import rskcheck.cli`."""
        package_root = Path(rskcheck.__file__).resolve().parent.parent
        result = subprocess.run(
            [
                sys.executable,
                "-S",
                "-c",
                "import rskcheck.cli, sys; "
                f"print(' '.join(m for m in {modules!r} if m in sys.modules))",
            ],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(package_root)},
        )
        assert result.returncode == 0, result.stderr
        return result.stdout.split()

    def test_import_does_not_load_the_process_pool(self):
        assert self.loaded_by_cli_import(["concurrent.futures.process"]) == []

    def test_import_loads_no_dataclasses_inspect_typing_or_pathlib(self):
        # Each costs start-up time on every one-shot command.
        heavy = ["dataclasses", "inspect", "typing", "pathlib"]
        assert self.loaded_by_cli_import(heavy) == []

    def test_console_script(self):
        result = subprocess.run(
            ["rskcheck", "theta", "231", "--json"], capture_output=True, text=True
        )
        assert result.returncode == 0
        assert result.stdout == '{"result":[1]}\n'
