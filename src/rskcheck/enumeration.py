"""Exhaustive sweeps over symmetric groups and tableau families: set
counts, memberships, and machine-readable verification reports.

R_n is listed by one pruned search, `_reverse_stable`: it builds each
word from both ends, inserts in lockstep, and drops a subtree at the
first recording step that differs; every word it completes is judged by
the definitional `same_recording_tableau`. Its members are sorted, so
they come out in rank order.

H_n and C_n, whose recording tableaux are the symmetric hooks and those
of them with the first-row property, are not searched: by the RSK
bijection they are the `inverse_rsk` images of their tableau pairs. The
characterization is the set equality R_n = C_n. The R side never looks
at a shape, and the C side never compares a word with its reverse.

The relations and phi/theta suites are plain loops over S_n in rank
order, one task for each size, and each computes a value once and looks
it up after that. The relations suite inserts each word once and
evacuates and transposes each tableau once, and then checks the eight
relations by lookup. The phi/theta suite projects each lift once; once
the lifts tile S_{n+2}, the reverse and complement laws are checked there
by lookup.

The R search is split into tasks, one for each pair of end letters
a < b; each searches the words with w_1 = a and w_n = b and adds the
reverse of every member it finds. The tasks and their order do not
depend on the worker count, so no result does either.

`verify` plans a verification run, checks every range and the worker
count before any work starts, and shares one memo of R_n between the
count, characterization and transport claims, so a run builds each R_n
once. For one worker every task runs in this process, when its claim
runs. For more, the plan's first claim starts one pool of at most
`workers` processes and queues on it every task of the plan, the whole
symmetry and phi/theta claims first; the pool closes once every result
has been taken. A worker that dies ends the run with ChildProcessError.
`count_R`, `list_set` and `verify_R_transport` called alone start a pool
of their own for their search, and `verify_symmetry_relations` and
`verify_phi_theta` called alone run in this process.
"""

from __future__ import annotations

import json
import os
import time
from collections import namedtuple
from collections.abc import Callable, Iterable
from functools import cache, partial
from itertools import permutations
from math import comb, factorial

from .evacuation import evacuation
from .permutations import Permutation
from .reverse_maps import is_in_M, phi, satisfies_first_row_property, theta
from .rsk import TableauPair, _insert, _uninsert, inverse_rsk, rsk, same_recording_tableau
from .tableaux import Shape, StandardYoungTableau, enumerate_syt

__all__ = [
    "DEFAULT_MAX_COUNT_N",
    "DEFAULT_MAX_LIST_N",
    "PHI_THETA_MAX_N",
    "SUITES",
    "SYMMETRY_MAX_N",
    "SetName",
    "VerificationReport",
    "append_reports",
    "count_H",
    "count_M",
    "count_M_formula",
    "count_R",
    "count_R_formula",
    "list_set",
    "symmetric_hook_shape",
    "verify",
    "verify_R_transport",
    "verify_characterization",
    "verify_count_theorem",
    "verify_phi_theta",
    "verify_symmetry_relations",
]

DEFAULT_MAX_COUNT_N = 11
DEFAULT_MAX_LIST_N = 8

# Largest sizes of the n!-scan suites: the symmetry relations and the
# phi/theta sources are checked up to these sizes, whatever the run's n_max.
SYMMETRY_MAX_N = 7
PHI_THETA_MAX_N = 6

SUITES = ("count", "characterization", "symmetry", "phi_theta", "transport")

SetName = str  # the sets list_set accepts: "R", "H" or "M"

_REPORT_FIELDS = "check n observed expected formula passed elapsed_ms workers detail"


class VerificationReport(namedtuple("VerificationReport", _REPORT_FIELDS, defaults=(None,))):
    """One verified claim: what was observed, what was expected, timing.
    detail, None by default, holds diagnostics only and is not part of the
    JSON schema."""

    __slots__ = ()

    def as_dict(self) -> dict[str, object]:
        """Every field but detail, in declaration order."""
        payload = self._asdict()
        del payload["detail"]
        return payload

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), separators=(",", ":"))


def append_reports(reports: list[VerificationReport], path: str | os.PathLike[str]) -> None:
    """Append reports to a JSON-lines file, one report per line."""
    with open(path, "a", encoding="utf-8") as handle:
        for report in reports:
            handle.write(report.to_json() + "\n")


def count_R_formula(n: int) -> int:
    """Closed form for the reverse-stable count: 2^((n-1)/2) * C(n-1, (n-1)/2)
    for odd n, 0 for even n."""
    if n < 1:
        raise ValueError(f"size must be positive, got {n}")
    if n % 2 == 0:
        return 0
    half = (n - 1) // 2
    return 2**half * comb(n - 1, half)


def count_M_formula(n: int) -> int:
    """Closed form for the symmetric-hook tableaux fixed by
    evacuation-transpose: 2^((n-1)/2) for odd n, 0 for even n."""
    if n < 1:
        raise ValueError(f"size must be positive, got {n}")
    if n % 2 == 0:
        return 0
    return 2 ** ((n - 1) // 2)


def symmetric_hook_shape(n: int) -> Shape:
    """The unique self-conjugate hook of odd size n: ((n+1)/2, 1^((n-1)/2))."""
    if n < 1 or n % 2 == 0:
        raise ValueError(f"no symmetric hook shape exists for n={n}")
    return Shape(((n + 1) // 2,) + (1,) * ((n - 1) // 2))


# ---------------------------------------------------------------------------
# the R search and the n! scans


def _check_workers(workers: int) -> None:
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")


def _reverse_stable(task: tuple[int, int, int]) -> list[tuple[int, ...]]:
    """The members of R_n that begin with `first` and end with `last`,
    where first < last, together with their reverses, unordered.

    A backtracking search from both ends: depth k fixes w_k and then
    w_{n+1-k}, bumps w_k into the forward rows and w_{n+1-k} into the
    reverse rows, and goes on only with a w_{n+1-k} whose new cell is
    w_k's. Step k of Q(w) and of Q(w^r) is compared there, so a subtree
    dropped at a mismatch holds no member. Each step is undone in place by
    a reverse bump. For odd n the middle letter is forced. Every completed
    word is judged by same_recording_tableau, the module global at the
    time of the search.

    Q(w) = Q(w^r) is symmetric in w and w^r, and so is the search: step k
    compares the same two cells for both. So each member is recorded
    together with its reverse, which begins with last and so is found by
    no task with first < last; for n >= 2 no word is its own reverse.
    """
    n, first, last = task
    half = n // 2
    w = [0] * n
    w[0], w[-1] = first, last
    # The first letter of each end lands in the empty rows' one corner.
    forward: list[list[int]] = [[first]]
    backward: list[list[int]] = [[last]]
    found = []

    def extend(k: int, free: tuple[int, ...]) -> None:
        if k == half:
            if free:
                w[half] = free[0]
            if same_recording_tableau(w, w[::-1]):
                found.extend((tuple(w), tuple(w[::-1])))
            return
        for i, a in enumerate(free):
            rest = free[:i] + free[i + 1 :]
            w[k] = a
            cell = _insert(forward, a)
            for j, b in enumerate(rest):
                back = _insert(backward, b)
                if back == cell:
                    w[n - 1 - k] = b
                    extend(k + 1, rest[:j] + rest[j + 1 :])
                _uninsert(backward, back[0])
            _uninsert(forward, cell[0])

    extend(1, tuple(a for a in range(1, n + 1) if a not in (first, last)))
    return found


def _pair_tasks(n: int) -> list[tuple[int, int, int]]:
    """The search tasks of R_n: one for each pair of end letters a < b."""
    return [(n, a, b) for a in range(1, n) for b in range(a + 1, n + 1)]


def _timed(run: Callable, arg: object) -> tuple[object, float]:
    """run(arg), and the seconds it took where it ran."""
    started = time.perf_counter()
    return run(arg), time.perf_counter() - started


def _start_worker(parent: int) -> None:
    """Set up a pool worker. A terminal sends Ctrl-C to the whole process
    group and only the parent reports it, so the worker ignores it. A parent
    killed before it closes its pool leaves its workers waiting for tasks
    forever, so a daemon thread ends the worker once `parent` is gone."""
    import signal
    import threading

    signal.signal(signal.SIGINT, signal.SIG_IGN)

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(0.25)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


class _SearchPool:
    """Runs tasks, each a function and its argument: for one worker in this
    process, when they are asked for; otherwise on one process pool. The
    pool starts at start() or at the first request, queues every task of
    `queued` in that order, and closes once every queued result has been
    taken. It never holds more processes than requested, CPUs, or queued
    tasks. A failure or an interrupt closes it, and the tasks not yet
    started are cancelled."""

    def __init__(self, workers: int, queued: list[tuple[Callable, object]]) -> None:
        _check_workers(workers)
        self.workers = workers
        self.queued = queued
        self.futures = None  # task -> future, once the pool has started
        self.executor = None
        self.credit = 0.0

    def clock(self) -> float:
        """Seconds that advance with this process's work and with the run
        time of each task taken, but not while it waits for one."""
        return time.perf_counter() + self.credit

    def start(self) -> None:
        """Start the pool and queue every task on it, once; for one worker,
        or with nothing to queue, start nothing."""
        if self.workers == 1 or self.futures is not None or not self.queued:
            return
        # Imported here so that commands which never run a pool do not pay
        # for loading it.
        import signal
        import threading
        from concurrent.futures import Future, ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        size = min(self.workers, len(self.queued), os.cpu_count() or 1)
        self.executor = ProcessPoolExecutor(
            size, initializer=_start_worker, initargs=(os.getpid(),)
        )
        owner, executor = os.getpid(), self.executor

        def cancel_at_exit() -> None:
            # A process that exits with the pool open, after an error or a
            # Ctrl-C between two claims, would otherwise run every queued
            # task first: the exit hook of concurrent.futures waits for
            # them. This hook is registered later, so it runs before that
            # one. The workers inherit it by fork and skip it.
            if os.getpid() == owner:
                executor.shutdown(cancel_futures=True)

        threading._register_atexit(cancel_at_exit)
        self.futures = {}
        # Ctrl-C waits until every task is queued: raised inside the
        # executor's locking, it can leave a lock held that close() then
        # waits on forever. The pool's threads start here and inherit the
        # mask, so the signal can only reach this thread.
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            for task in self.queued:
                try:
                    future = self.executor.submit(_timed, *task)
                except BrokenProcessPool as exc:
                    # A worker died already: the task that needs this
                    # result reports it, so earlier claims still finish.
                    future = Future()
                    future.set_exception(exc)
                self.futures[task] = future
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)

    def results(self, run: Callable, args: list) -> list:
        """run(arg) for each of args, in order. On the pool each (run, arg)
        must be a queued task, and its result is taken from it."""
        if self.workers == 1:
            return list(map(run, args))
        from concurrent.futures.process import BrokenProcessPool

        try:
            self.start()
            results = [self._take((run, arg)) for arg in args]
        except BaseException as exc:
            self.close()
            if isinstance(exc, BrokenProcessPool):
                raise ChildProcessError("a search worker ended abruptly") from None
            raise
        if not self.futures:
            self.close()
        return results

    def _take(self, task: tuple[Callable, object]) -> object:
        waited = time.perf_counter()
        result, seconds = self.futures.pop(task).result()
        self.credit += seconds - (time.perf_counter() - waited)
        return result

    def close(self) -> None:
        if self.executor is not None:
            self.executor.shutdown(cancel_futures=True)
            self.executor = None


def _reverse_stable_members(n: int, pool: _SearchPool) -> list[tuple[int, ...]]:
    """R_n in rank order, from its pair tasks, run on `pool`. The one word
    of S_1 is its own reverse."""
    if n == 1:
        return [(1,)]
    found = pool.results(_reverse_stable, _pair_tasks(n))
    return sorted(member for members in found for member in members)


def _search_alone(n: int, workers: int) -> list[tuple[int, ...]]:
    """R_n, on a pool of its own that closes when the search ends."""
    pool = _SearchPool(workers, [(_reverse_stable, task) for task in _pair_tasks(n)])
    return _reverse_stable_members(n, pool)


def _hook_tableaux(n: int) -> list[StandardYoungTableau]:
    """The standard tableaux of the symmetric hook of size n; none for even n."""
    return enumerate_syt(symmetric_hook_shape(n)) if n % 2 else []


def _inverse_images(recording: list[StandardYoungTableau]) -> list[tuple[int, ...]]:
    """The entries of every permutation whose recording tableau is in
    `recording`, in rank order: by the RSK bijection, one per insertion
    tableau of the recording tableau's shape."""
    fillings = cache(enumerate_syt)
    pairs = (TableauPair(p, q) for q in recording for p in fillings(q.shape))
    return sorted(inverse_rsk(pair).entries for pair in pairs)


def _relations_failure(n: int) -> str | None:
    """The first word of S_n, in rank order, for which one of the eight
    tableau-pair identities tying a permutation's reverse, complement, and
    inverse to transposes and evacuations fails. Each word is inserted once,
    and each tableau evacuated once and transposed once."""
    pairs = {word: rsk(Permutation._trusted(word)) for word in permutations(range(1, n + 1))}
    evacuate = cache(evacuation)
    transpose = cache(StandardYoungTableau.transpose)
    for word, pair in pairs.items():
        w = Permutation._trusted(word)
        p, q = pair.p, pair.q
        ep, eq = evacuate(p), evacuate(q)
        pt, qt = transpose(p), transpose(q)
        ept, eqt = transpose(ep), transpose(eq)
        wi = w.inverse()
        cases = (
            ("identity", w, p, q),
            ("complement", w.complement(), ept, qt),
            ("reverse", w.reverse(), pt, eqt),
            ("reverse-complement", w.reverse().complement(), ep, eq),
            ("inverse", wi, q, p),
            ("inverse-complement", wi.complement(), eqt, pt),
            ("inverse-reverse", wi.reverse(), qt, ept),
            ("inverse-reverse-complement", wi.reverse().complement(), eq, ep),
        )
        for name, v, expect_p, expect_q in cases:
            got = pairs[v.entries]
            if got.p != expect_p or got.q != expect_q:
                return f"{name} relation fails for {w}"
    return None


def _phi_theta_failure(n: int) -> str | None:
    """The first failure, if any, of the phi/theta laws at size n: every
    lift of every word of S_n is undone by projection, the lift images tile
    S_{n+2}, and projection commutes with reverse and complement there.

    Each lift is projected once. Once the lifts tile S_{n+2}, the table of
    projections holds theta(v) for every v there, so the last two laws are
    checked by lookup."""
    m = n + 2
    project: dict[tuple[int, ...], Permutation] = {}
    for word in permutations(range(1, n + 1)):
        w = Permutation._trusted(word)
        for a in range(1, m + 1):
            for b in range(1, m + 1):
                if a == b:
                    continue
                lifted = phi(w, a, b)
                if theta(lifted) != w:
                    return f"projection fails to undo lift ({a},{b}) of {w}"
                project[lifted.entries] = w
    # A lift that is no word of S_{n+2} covers nothing.
    covered = sum(map(project.__contains__, permutations(range(1, m + 1))))
    if covered != factorial(m):
        return f"lift images cover {covered} of {factorial(m)} permutations"
    reverse, complement = cache(Permutation.reverse), cache(Permutation.complement)
    for word in permutations(range(1, m + 1)):
        projected = project[word]
        if project[word[::-1]] != reverse(projected):
            return f"projection does not commute with reverse on {Permutation._trusted(word)}"
        if project[tuple(m + 1 - v for v in word)] != complement(projected):
            return f"projection does not commute with complement on {Permutation._trusted(word)}"
    return None


# ---------------------------------------------------------------------------
# counting and listing


def _check_count_range(n: int, max_n: int) -> None:
    if not 1 <= n <= max_n:
        raise ValueError(f"n={n} outside the configured range [1, {max_n}]")


def count_R(n: int, *, workers: int = 1, max_n: int = DEFAULT_MAX_COUNT_N) -> int:
    """Exhaustive count of permutations sharing a recording tableau with
    their reverse, by the two-ended pruned search."""
    _check_count_range(n, max_n)
    return len(_search_alone(n, workers))


def count_H(n: int, *, workers: int = 1, max_n: int = DEFAULT_MAX_COUNT_N) -> int:
    """Count the permutations whose recording tableau has symmetric hook
    shape, listed as the inverse RSK images of the hook's tableau pairs."""
    _check_count_range(n, max_n)
    _check_workers(workers)
    return len(_inverse_images(_hook_tableaux(n)))


def count_M(n: int, *, max_n: int = DEFAULT_MAX_COUNT_N) -> int:
    """Count the symmetric-hook tableaux fixed by evacuation-transpose.

    Even sizes have no symmetric hook shape, so the count is 0 rather than
    an error.
    """
    return len(list_set("M", n, max_n=max_n))


def list_set(
    which: SetName,
    n: int,
    *,
    workers: int = 1,
    list_max: int = DEFAULT_MAX_LIST_N,
    max_n: int = DEFAULT_MAX_COUNT_N,
) -> list[Permutation] | list[StandardYoungTableau]:
    """Materialize the members of R_n, H_n, or M_n in deterministic order.

    R and H are lists of permutations in lexicographic order; M is the
    list of qualifying symmetric-hook tableaux in reading-word order.
    """
    if which == "M":
        _check_count_range(n, max_n)
        return [t for t in _hook_tableaux(n) if is_in_M(t)]
    if which not in ("R", "H"):
        raise ValueError(f"unknown set {which!r}: expected R, H, or M")
    if n < 1:
        raise ValueError(f"size must be positive, got {n}")
    if n > list_max:
        raise ValueError(
            f"listing is capped at n={list_max} (counting is still allowed)"
        )
    _check_count_range(n, max_n)
    if which == "R":
        members = _search_alone(n, workers)
    else:
        _check_workers(workers)
        members = _inverse_images(_hook_tableaux(n))
    return [Permutation._trusted(entries) for entries in members]


# ---------------------------------------------------------------------------
# verification sweeps


def _report(
    check: str,
    n: int,
    workers: int,
    measure: Callable[[], tuple[int | bool, str | None]],
    formula: int | None = None,
    clock: Callable[[], float] = time.perf_counter,
) -> VerificationReport:
    """Time one claim by `clock` and report it.

    measure returns the observed value and a detail line. A claim with a
    closed form passes when the observed count equals it; any other claim
    passes when it observes True.
    """
    started = clock()
    observed, detail = measure()
    expected = True if formula is None else formula
    return VerificationReport(
        check=check,
        n=n,
        observed=observed,
        expected=expected,
        formula=formula,
        passed=observed == expected,
        elapsed_ms=int((clock() - started) * 1000),
        workers=workers,
        detail=detail,
    )


def _holds(failure: str | None) -> tuple[bool, str | None]:
    return failure is None, failure


def _characterization(n: int, members: list[tuple[int, ...]]) -> tuple[bool, str | None]:
    """Whether R_n, given by its members, is C_n; if not, the least of R_n ^ C_n."""
    recording = [q for q in _hook_tableaux(n) if satisfies_first_row_property(q)]
    disagree = set(members) ^ set(_inverse_images(recording))
    if disagree:
        return False, "first counterexample: " + " ".join(map(str, min(disagree)))
    return True, None


def _transport(members: list[tuple[int, ...]]) -> tuple[bool, str]:
    """Project each member of R_{n+2} into R_n and lift it back by its endpoints."""
    for entries in members:
        v = Permutation._trusted(entries)
        projected = theta(v)
        if not same_recording_tableau(projected.entries, projected.entries[::-1]):
            return False, f"projection of {v} leaves the reverse-stable set"
        if phi(projected, v.entries[0], v.entries[-1]) != v:
            return False, f"endpoint lift does not reassemble {v}"
    return True, f"checked {len(members)} members"


def verify(
    suites: Iterable[str], n_max: int, *, workers: int = 1, max_n: int = DEFAULT_MAX_COUNT_N
) -> list[Callable[[], VerificationReport]]:
    """Plan a run of the named suites up to size n_max: one claim per
    report, in SUITES order and then by size, which checks and reports
    when called. Symmetry and phi/theta stop at their caps, and transport
    sources at n_max - 2. Every range is checked here, before any claim
    runs. The claims share one memo of R_n, so each R_n is built once.

    For one worker each claim runs in this process when it is called. For
    more, the first claim called starts one pool and queues on it every
    task of the plan: each symmetry and phi/theta claim whole, the largest
    symmetric group scanned first (phi/theta at n scans S_{n+2}), and then
    the pair tasks of every R_n the plan builds, by size. The indivisible
    tasks start first and the many small ones fill the gaps. Each claim
    then waits only on its own tasks, and the pool closes once every
    result has been taken, or when a claim fails.

    A report's elapsed_ms is the time of its claim's own work, plus the run
    time of its own tasks where they ran; it never counts the time a claim
    waited behind the tasks of other claims, nor the building of an R_n
    that an earlier claim already built."""
    chosen = set(suites)
    if chosen - set(SUITES):
        raise ValueError(f"unknown suite {min(chosen - set(SUITES))!r}: expected one of {SUITES}")
    caps = {"symmetry": SYMMETRY_MAX_N, "phi_theta": PHI_THETA_MAX_N, "transport": n_max - 2}
    sizes = {suite: range(1, min(n_max, caps.get(suite, n_max)) + 1) for suite in SUITES}
    to_search = set()
    if chosen & {"count", "characterization"}:
        _check_count_range(n_max, max_n)
        to_search.update(sizes["count"])
    for n in sizes["transport"] if "transport" in chosen else ():
        _check_count_range(n + 2, max_n)
        to_search.add(n + 2)
    # Each whole n! claim with the size of the symmetric group it scans.
    scans = [(n, _relations_failure, n) for n in sizes["symmetry"] if "symmetry" in chosen]
    scans += [(n + 2, _phi_theta_failure, n) for n in sizes["phi_theta"] if "phi_theta" in chosen]
    queued = [(failure, n) for _, failure, n in sorted(scans, key=lambda scan: -scan[0])]
    queued += [(_reverse_stable, task) for n in sorted(to_search) for task in _pair_tasks(n)]
    pool = _SearchPool(workers, queued)
    members = cache(partial(_reverse_stable_members, pool=pool))

    def report(check: str, n: int, measure, formula: int | None = None) -> VerificationReport:
        return _report(check, n, workers, measure, formula, pool.clock)

    def pooled(check: str, failure: Callable[[int], str | None]) -> Callable[[int], object]:
        return lambda n: report(check, n, lambda: _holds(pool.results(failure, [n])[0]))

    claims = {
        "count": lambda n: report(
            "count_R", n, lambda: (len(members(n)), None), count_R_formula(n)
        ),
        "characterization": lambda n: report(
            "characterization", n, lambda: _characterization(n, members(n))
        ),
        "symmetry": pooled("symmetry_relations", _relations_failure),
        "phi_theta": pooled("phi_theta", _phi_theta_failure),
        "transport": lambda n: report("r_transport", n, lambda: _transport(members(n + 2))),
    }
    if workers == 1:
        # The same checks, through the entry points that run them alone.
        claims["symmetry"] = partial(verify_symmetry_relations, workers=1)
        claims["phi_theta"] = partial(verify_phi_theta, workers=1)

    def claim(suite: str, n: int) -> VerificationReport:
        try:
            pool.start()
            return claims[suite](n)
        except BaseException:
            pool.close()
            raise

    return [partial(claim, suite, n) for suite in SUITES if suite in chosen for n in sizes[suite]]


def verify_count_theorem(
    n_max: int, *, workers: int = 1, max_n: int = DEFAULT_MAX_COUNT_N
) -> list[VerificationReport]:
    """Compare the exhaustive reverse-stable count with its closed form
    for every size up to n_max."""
    return [claim() for claim in verify(["count"], n_max, workers=workers, max_n=max_n)]


def verify_characterization(
    n_max: int, *, workers: int = 1, max_n: int = DEFAULT_MAX_COUNT_N
) -> list[VerificationReport]:
    """Check, for every n up to n_max, that R_n equals C_n, the permutations
    whose recording tableau is the symmetric hook with the first-row
    property, and report the least word of R_n ^ C_n, if any."""
    return [claim() for claim in verify(["characterization"], n_max, workers=workers, max_n=max_n)]


def verify_symmetry_relations(n: int, *, workers: int = 1) -> VerificationReport:
    """Check the eight tableau-pair identities for every permutation of
    size n. Called alone, the check runs in this process and workers is
    only echoed; only a `verify` plan runs it on its pool."""
    if not 1 <= n <= SYMMETRY_MAX_N:
        raise ValueError(f"n={n} outside the supported range [1, {SYMMETRY_MAX_N}]")
    _check_workers(workers)
    return _report("symmetry_relations", n, workers, lambda: _holds(_relations_failure(n)))


def verify_phi_theta(n: int, *, workers: int = 1) -> VerificationReport:
    """Check that projection undoes every lift of every size-n permutation,
    that the lift images tile the symmetric group two sizes up exactly, and
    that projection commutes with reverse and complement there. Called
    alone, the check runs in this process and workers is only echoed; only
    a `verify` plan runs it on its pool."""
    if not 1 <= n <= PHI_THETA_MAX_N:
        raise ValueError(f"n={n} outside the supported range [1, {PHI_THETA_MAX_N}]")
    _check_workers(workers)
    return _report("phi_theta", n, workers, lambda: _holds(_phi_theta_failure(n)))


def verify_R_transport(
    n: int, *, workers: int = 1, max_n: int = DEFAULT_MAX_COUNT_N
) -> VerificationReport:
    """Check that projecting any reverse-stable permutation of size n+2
    lands in the reverse-stable set of size n, and that lifting it back by
    its endpoints reassembles the original."""
    if n < 1:
        raise ValueError(f"size must be positive, got {n}")
    _check_count_range(n + 2, max_n)
    members = partial(_search_alone, n + 2, workers)
    return _report("r_transport", n, workers, lambda: _transport(members()))
