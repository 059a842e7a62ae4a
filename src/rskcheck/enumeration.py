"""Exhaustive sweeps over symmetric groups and tableau families: set
counts, memberships, and machine-readable verification reports.

R_n is listed by one pruned search, `_reverse_stable`: it builds each
word from both ends, inserts in lockstep, and drops a subtree at the
first recording step that differs. Each task keeps its insertion steps
in a table, so a step is worked out once and undone for free. Every
word it completes is judged by the definitional `same_recording_tableau`,
which goes on from the search's own insertion rows through the steps
the search has not compared. Its members are sorted, so they come out
in rank order.

H_n and C_n, whose recording tableaux are the symmetric hooks and those
of them with the first-row property, are not searched: by the RSK
bijection they are the `inverse_rsk` images of their tableau pairs. The
characterization is the set equality R_n = C_n. The R side never looks
at a shape, and the C side never compares a word with its reverse.

The relations and phi/theta suites are plain loops over S_n in rank
order, one task for each size. Each names a word by its rank in
lexicographic order, computes a value once and looks it up by rank after
that. Complement reverses every comparison of values, so it takes the
word of rank r to the word of rank n! - 1 - r; the ranks of reverses and
inverses are tabled once. The relations suite inserts each word once and
evacuates and transposes each tableau once, and then checks the eight
relations as comparisons of rank-indexed pairs of tableau numbers. The
phi/theta suite projects each lift once and maps it to the rank of the
word it lifts; once the lifts tile S_{n+2}, which is streamed and never
held, the reverse and complement laws are checked there by rank.

The R search is split into tasks, one for each pair of end letters
a < b; each searches the words with w_1 = a and w_n = b and adds the
reverse of every member it finds. The tasks and their order do not
depend on the worker count, so no result does either.

`verify` plans a verification run, and every public entry point that
searches or scans is a plan of one claim; `verify` describes how a plan
checks its ranges, shares R_n and runs its tasks. A plan derives each
claim's tasks once, in its task table, and runs that table's tasks in
this process or on its pool, so the two paths run the same tasks, and
each of them once per plan.
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
from .rsk import TableauPair, _insert, inverse_rsk, rsk, same_recording_tableau
from .tableaux import Shape, StandardYoungTableau, enumerate_syt

__all__ = [
    "SUITES",
    "VerificationReport",
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


def _scan_caps() -> dict[str, int]:
    # Built at each call, not at import, so a cap set on the module later holds.
    return {"symmetry": SYMMETRY_MAX_N, "phi_theta": PHI_THETA_MAX_N}


# Each suite, in run order, with the check name of its reports.
_CHECKS = {
    "count": "count_R",
    "characterization": "characterization",
    "symmetry": "symmetry_relations",
    "phi_theta": "phi_theta",
    "transport": "r_transport",
}
SUITES = tuple(_CHECKS)

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
    dropped at a mismatch holds no member. For odd n the middle letter is
    forced.

    The rows are kept in a step table that lives as long as the task.
    Each distinct row state gets an int id when it is first made, and
    steps[id][x] holds the id after bumping x, with the new cell; _insert
    works a step out the first time it is needed. So a node looks up the
    reverse rows' cell of each free letter once, not once for every w_k,
    and undoing a step is going back to the parent's id.

    Every completed word is judged by same_recording_tableau, the module
    global at the time of the search. It is given steps n//2+1..n of w
    and of w^r and starts from the two rows the search holds, whose steps
    1..n//2 the search has compared.

    Q(w) = Q(w^r) is symmetric in w and w^r, and so is the search: step k
    compares the same two cells for both. So each member is recorded
    together with its reverse, which begins with last and so is found by
    no task with first < last; for n >= 2 no word is its own reverse.
    """
    n, first, last = task
    half = n // 2
    w = [0] * n
    w[0], w[-1] = first, last
    found = []
    # The step table: state ids by rows, the rows of each id, and its
    # steps; id 0 is the empty rows.
    ids: dict[tuple[tuple[int, ...], ...], int] = {(): 0}
    rows: list[tuple[tuple[int, ...], ...]] = [()]
    steps: list[dict[int, tuple[int, tuple[int, int]]]] = [{}]

    def step(i: int, x: int) -> tuple[int, tuple[int, int]]:
        grid = [list(row) for row in rows[i]]
        cell = _insert(grid, x)
        key = tuple(map(tuple, grid))
        if (j := ids.get(key)) is None:
            j = ids[key] = len(rows)
            rows.append(key)
            steps.append({})
        steps[i][x] = made = j, cell
        return made

    def extend(k: int, free: tuple[int, ...], front: int, back: int) -> None:
        if k == half:
            if free:
                w[half] = free[0]
            tails = w[half:], w[n - 1 - half :: -1]
            if same_recording_tableau(*tails, start=(rows[front], rows[back])):
                found.extend((tuple(w), tuple(w[::-1])))
            return
        ahead, behind = steps[front], steps[back]
        backs = [behind.get(b) or step(back, b) for b in free]
        for i, a in enumerate(free):
            w[k] = a
            after, cell = ahead.get(a) or step(front, a)
            for j, (before, back_cell) in enumerate(backs):
                if back_cell == cell and j != i:
                    w[n - 1 - k] = free[j]
                    lo, hi = sorted((i, j))
                    extend(k + 1, free[:lo] + free[lo + 1 : hi] + free[hi + 1 :], after, before)

    free = tuple(a for a in range(1, n + 1) if a not in (first, last))
    extend(1, free, step(0, first)[0], step(0, last)[0])
    # extend refers to itself: break that cycle, so the table goes now.
    del extend
    return found


def _timed(run: Callable, arg: object) -> tuple[object, float]:
    """run(arg), and the seconds it took where it ran."""
    started = time.perf_counter()
    return run(arg), time.perf_counter() - started


def _start_worker(parent: int) -> None:
    """Set up a pool worker. A terminal sends Ctrl-C to the whole process
    group and only the parent reports it, so the worker ignores it. A parent
    killed before it closes its pool leaves its workers running tasks for
    nobody, so a daemon thread ends the worker once `parent` is gone."""
    import signal
    import threading

    signal.signal(signal.SIGINT, signal.SIG_IGN)

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(0.25)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def _serve(queued: list[tuple[Callable, object]], tasks: int, replies: int) -> None:
    """Run a pool worker's tasks: each number read from the pipe `tasks`
    names a task of `queued`, and its reply, the task number with its
    `_timed` result or what it raised, goes to the pipe `replies`, pickled
    after its length in 4 bytes. Ends once `tasks` is empty."""
    import pickle

    # A buffered file finishes a write that a stop signal, Ctrl-Z, cut short.
    with open(replies, "wb") as out:
        while len(number := os.read(tasks, 4)) == 4:
            i = int.from_bytes(number, "little")
            try:
                reply = pickle.dumps((i, _timed(*queued[i])))
            except Exception as exc:
                reply = pickle.dumps((i, exc))
            out.write(len(reply).to_bytes(4, "little") + reply)
            out.flush()


class _Workers:
    """The pool: `size` forked processes that run the tasks of `queued`.
    A worker inherits `queued`, so it reads only task numbers, in queue
    order, from one shared pipe, each the next as it becomes free, and
    replies on a pipe of its own. Its whole body ends in os._exit, so it
    never unwinds into this process's frames or flushes their buffers."""

    def __init__(self, size: int, queued: list[tuple[Callable, object]]) -> None:
        # pickle and threading are loaded once here, not in every worker.
        import pickle
        import signal
        import threading

        self.replies: dict[int, object] = {}  # task number -> result or exception
        self.pipes: dict[int, tuple[int, bytearray]] = {}  # reply pipe -> worker pid, unread
        parent, (tasks, feed) = os.getpid(), os.pipe()
        loose = [tasks, feed]  # this process's pipe ends that a failed start closes
        # No worker may take a Ctrl-C before _start_worker ignores it.
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            for _ in range(size):
                reader, writer = os.pipe()
                loose += reader, writer
                if (pid := os.fork()) == 0:
                    try:
                        for fd in (feed, reader, *self.pipes):
                            os.close(fd)
                        _start_worker(parent)
                        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                        _serve(queued, tasks, writer)
                        os._exit(0)
                    finally:
                        os._exit(1)
                del loose[2:]
                self.pipes[reader] = pid, bytearray()
                os.close(writer)
            # tasks is held open until the numbers are written, so writing cannot fail.
            with open(loose.pop(), "wb") as out:  # feed
                out.write(b"".join(i.to_bytes(4, "little") for i in range(len(queued))))
            os.close(loose.pop())  # tasks
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)  # raises a held-back Ctrl-C
        except BaseException:
            for fd in loose:
                os.close(fd)
            self.close()
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            raise

    def take(self, i: int) -> object:
        """Task i's `_timed` result, once its reply is read; what the task
        raised is raised here. A worker that ends abruptly closes the pool,
        and a result not read by then raises ChildProcessError."""
        import pickle
        import select

        while i not in self.replies and self.pipes:
            # poll, unlike select, takes descriptors past FD_SETSIZE.
            ready = select.poll()
            for reader in self.pipes:
                ready.register(reader, select.POLLIN)
            for reader, _ in ready.poll():
                pid, unread = self.pipes[reader]
                unread += (chunk := os.read(reader, 1 << 16))
                while len(unread) >= 4 + (length := int.from_bytes(unread[:4], "little")):
                    number, self.replies[number] = pickle.loads(unread[4 : 4 + length])
                    del unread[: 4 + length]
                if not chunk:
                    os.close(reader)
                    if os.waitpid(self.pipes.pop(reader)[0], 0)[1]:
                        self.close()
                        break
        if i not in self.replies:
            # The worker may have died in any task it ran, so none is named.
            raise ChildProcessError("a pool worker ended abruptly")
        if isinstance(value := self.replies.pop(i), Exception):
            raise value
        return value

    def close(self) -> None:
        """Kill and reap the workers left; replies already read stay."""
        import signal

        for reader, (pid, _) in self.pipes.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(reader)
        self.pipes.clear()


def _reverse_stable_members(n: int, pool: _Plan) -> list[tuple[int, ...]]:
    """R_n in rank order, from its pair tasks, run by the plan `pool`. The
    one word of S_1 is its own reverse."""
    if n == 1:
        return [(1,)]
    found = pool.results(n)
    return sorted(member for members in found for member in members)


def _hook_tableaux(n: int) -> list[StandardYoungTableau]:
    """The standard tableaux of the symmetric hook of size n; none for even n."""
    return enumerate_syt(symmetric_hook_shape(n)) if n % 2 else []


def _inverse_images(recording: list[StandardYoungTableau]) -> list[tuple[int, ...]]:
    """The entries of every permutation whose recording tableau is in
    `recording`, in rank order: by the RSK bijection, one per insertion
    tableau of the recording tableau's shape."""
    fillings = cache(enumerate_syt)
    pairs = (TableauPair(p, q) for q in recording for p in fillings(q.shape))
    return sorted(inverse_rsk(pair) for pair in pairs)


def _relations_failure(n: int) -> str | None:
    """The first word of S_n, in rank order, for which one of the eight
    tableau-pair identities tying a permutation's reverse, complement, and
    inverse to transposes and evacuations fails.

    A word is named by its rank in lexicographic order. Complement reverses
    every comparison of values, so it takes rank r to top - r, where
    top = n! - 1; the ranks of reverses and inverses are tabled once. Each
    word is inserted once. Each distinct tableau is numbered by its rows,
    and evacuated once and transposed once, so the pair of each rank is a
    tuple of two small ints and each relation is one tuple comparison."""
    words = list(permutations(range(1, n + 1)))
    rank = {word: r for r, word in enumerate(words)}
    letters = range(1, n + 1)
    reverse = [rank[word[::-1]] for word in words]
    # ((0,) + w).index(v) is the position of v in w, the entry v of w's inverse.
    inverse = [rank[tuple(map(((0,) + word).index, letters))] for word in words]
    # Each tableau's number is its place in the dict's insertion order.
    numbers: dict[StandardYoungTableau, int] = {}

    def number(t: StandardYoungTableau) -> int:
        return numbers.setdefault(t, len(numbers))

    pairs = [tuple(map(number, rsk(Permutation._trusted(word)))) for word in words]
    # Each evacuation and transpose may number a new tableau, so each
    # map runs over the tableaux numbered before it.
    evacuated = list(map(number, map(evacuation, list(numbers))))
    transposed = list(map(number, map(StandardYoungTableau.transpose, list(numbers))))
    top = len(words) - 1
    for r, (p, q) in enumerate(pairs):
        ep, eq = evacuated[p], evacuated[q]
        pt, qt, ept, eqt = transposed[p], transposed[q], transposed[ep], transposed[eq]
        i = inverse[r]
        cases = (
            ("identity", r, p, q),
            ("complement", top - r, ept, qt),
            ("reverse", reverse[r], pt, eqt),
            ("reverse-complement", top - reverse[r], ep, eq),
            ("inverse", i, q, p),
            ("inverse-complement", top - i, eqt, pt),
            ("inverse-reverse", reverse[i], qt, ept),
            ("inverse-reverse-complement", top - reverse[i], eq, ep),
        )
        for name, v, expect_p, expect_q in cases:
            if pairs[v] != (expect_p, expect_q):
                return f"{name} relation fails for {Permutation._trusted(words[r])}"
    return None


def _phi_theta_failure(n: int) -> str | None:
    """The first failure, if any, of the phi/theta laws at size n: every
    lift of every word of S_n is undone by projection, the lift images tile
    S_{n+2}, and projection commutes with reverse and complement there.

    Each lift is projected once, and its entries are mapped to the rank of
    the word it lifts. S_{n+2} is streamed in rank order, never held: once
    the lifts tile it, the rank of each word's projection is read from that
    map. Complement takes rank r to top - r in either group, and the ranks
    of S_n's reverses are tabled once, so the last two laws compare ranks."""
    m = n + 2
    words = list(permutations(range(1, n + 1)))
    ends = [(a, b) for a in range(1, m + 1) for b in range(1, m + 1) if a != b]
    source: dict[tuple[int, ...], int] = {}
    for r, word in enumerate(words):
        w = Permutation._trusted(word)
        for a, b in ends:
            lifted = phi(w, a, b)
            if theta(lifted) != word:
                return f"projection fails to undo lift ({a},{b}) of {w}"
            source[lifted] = r
    # A lift that is no word of S_{n+2} covers nothing.
    projected = list(map(source.get, permutations(range(1, m + 1))))
    covered = len(projected) - projected.count(None)
    if covered != factorial(m):
        return f"lift images cover {covered} of {factorial(m)} permutations"
    rank = {word: r for r, word in enumerate(words)}
    reverse = [rank[word[::-1]] for word in words]
    top, last = len(projected) - 1, len(words) - 1
    for v, word in enumerate(permutations(range(1, m + 1))):
        r = projected[v]
        if source[word[::-1]] != reverse[r]:
            return f"projection does not commute with reverse on {Permutation._trusted(word)}"
        if projected[top - v] != last - r:
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
    with _Plan([("count", n)], workers, max_n) as plan:
        return plan[0]().observed


def count_H(n: int, *, workers: int = 1, max_n: int = DEFAULT_MAX_COUNT_N) -> int:
    """Count the permutations whose recording tableau has symmetric hook
    shape. By the RSK bijection each is the inverse RSK image of one pair
    of the hook's tableaux, so the count is the square of their number;
    none is built."""
    _check_count_range(n, max_n)
    _check_workers(workers)
    return len(_hook_tableaux(n)) ** 2


def count_M(n: int, *, max_n: int = DEFAULT_MAX_COUNT_N) -> int:
    """Count the symmetric-hook tableaux fixed by evacuation-transpose.

    Even sizes have no symmetric hook shape, so the count is 0 rather than
    an error.
    """
    return len(list_set("M", n, max_n=max_n))


def list_set(
    which: str,
    n: int,
    *,
    workers: int = 1,
    list_max: int = DEFAULT_MAX_LIST_N,
    max_n: int = DEFAULT_MAX_COUNT_N,
) -> list[Permutation] | list[StandardYoungTableau]:
    """Materialize the members of R_n, H_n, or M_n in deterministic order.

    R and H are lists of permutations in lexicographic order, and list_max
    caps their size; M is the list of qualifying symmetric-hook tableaux in
    reading-word order, and list_max does not apply to it.
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
        with _Plan([("count", n)], workers, max_n) as plan:
            members = plan.members(n)
    else:
        _check_workers(workers)
        members = _inverse_images(_hook_tableaux(n))
    return [Permutation._trusted(entries) for entries in members]


# ---------------------------------------------------------------------------
# verification sweeps


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
        if not same_recording_tableau(projected, projected[::-1]):
            return False, f"projection of {v} leaves the reverse-stable set"
        if phi(projected, v[0], v[-1]) != v:
            return False, f"endpoint lift does not reassemble {v}"
    return True, f"checked {len(members)} members"


class _Plan(list):
    """A planned run, as `verify` describes it: the list of its claims,
    each of which checks and reports when called, with the one pool that
    runs their tasks and one memo of R_n. It is made from (suite, n) pairs,
    and checks every range and the worker count before any claim runs. Each
    task is a function and its argument; `queued` holds them in the order
    the pool takes them, and a task's number is its place there. The task
    table, `tasks`, is the one place a claim's tasks are derived: it gives
    each n! claim, keyed by its (suite, n), and each R_n, keyed by n, its
    range of task numbers, which `results` takes from the pool or, with no
    pool, runs in this process; either way `_timed` times each task where
    it ran. The plan's one store, `done`, keeps each task's result by its
    number, so each task runs once per plan on either path."""

    def __init__(
        self, claims: list[tuple[str, int]], workers: int, max_n: int = DEFAULT_MAX_COUNT_N
    ) -> None:
        caps = _scan_caps()
        built = set()  # the size of each R_n that a claim takes its members from
        for suite, n in claims:
            if suite in caps and not 1 <= n <= caps[suite]:
                raise ValueError(f"n={n} outside the supported range [1, {caps[suite]}]")
            if suite == "transport" and n < 1:
                raise ValueError(f"size must be positive, got {n}")
            if suite not in caps:
                built.add(n + 2 if suite == "transport" else n)
        # Each n! claim whole, the largest symmetric group scanned first
        # (phi/theta at n scans S_{n+2}), and then the pair tasks of each R_n.
        scans = {"symmetry": (_relations_failure, 0), "phi_theta": (_phi_theta_failure, 2)}
        whole = sorted((c for c in claims if c[0] in scans), key=lambda c: -c[1] - scans[c[0]][1])
        self.queued = [(scans[suite][0], n) for suite, n in whole]
        self.tasks = {claim: range(i, i + 1) for i, claim in enumerate(whole)}
        for n in sorted(built):
            _check_count_range(n, max_n)
            pairs = [(_reverse_stable, (n, a, b)) for a in range(1, n) for b in range(a + 1, n + 1)]
            self.tasks[n] = range(len(self.queued), len(self.queued) + len(pairs))
            self.queued += pairs
        _check_workers(workers)
        self.workers = workers
        # Without fork, as with an unknown CPU count, every task runs here.
        cpus = (os.cpu_count() or 1) if hasattr(os, "fork") else 1
        self.size = min(workers, len(self.queued), cpus)
        self.pool, self.credit, self.done = None, 0.0, {}
        self.members = cache(partial(_reverse_stable_members, pool=self))
        super().__init__(partial(self._claim, suite, n) for suite, n in claims)

    def _claim(self, suite: str, n: int) -> VerificationReport:
        """Check one claim and report it, timed by the plan's clock. A count
        passes when it equals its closed form, and any other claim when it
        observes True; an n! scan observes True when it finds no failure."""
        try:
            self.start()
            started = self.clock()
            formula = detail = None
            if suite == "count":
                observed, formula = len(self.members(n)), count_R_formula(n)
            elif suite == "characterization":
                observed, detail = _characterization(n, self.members(n))
            elif suite == "transport":
                observed, detail = _transport(self.members(n + 2))
            else:
                detail = self.results((suite, n))[0]
                observed = detail is None
            expected = True if formula is None else formula
            return VerificationReport(
                check=_CHECKS[suite], n=n, observed=observed, expected=expected, formula=formula,
                passed=observed == expected, elapsed_ms=int((self.clock() - started) * 1000),
                workers=self.workers, detail=detail,
            )
        except BaseException:
            self.close()
            raise

    def clock(self) -> float:
        """Seconds that advance with this process's work and with the run
        time of each task taken, but not while it waits for one."""
        return time.perf_counter() + self.credit

    def start(self) -> None:
        """Fork the pool's workers and queue every task on them, once; for a
        pool of one process, start nothing."""
        if self.size > 1 and self.pool is None:
            self.pool = _Workers(self.size, self.queued)

    def results(self, key: tuple[str, int] | int) -> list:
        """The results of the tasks the table gives `key`, a claim's
        (suite, n) or the n of an R_n, in queue order, from the plan's
        store. A task the store lacks is taken from the pool, which closes
        once the store holds every queued task, or run here when there is
        no pool; so each task runs once per plan. Both paths time the task
        by `_timed` where it ran, and the clock is credited with that run
        time in place of the time spent here."""
        self.start()
        for i in [i for i in self.tasks[key] if i not in self.done]:
            waited = time.perf_counter()
            self.done[i], seconds = self.pool.take(i) if self.pool else _timed(*self.queued[i])
            self.credit += seconds - (time.perf_counter() - waited)
        if len(self.done) == len(self.queued):
            self.close()
        return [self.done[i] for i in self.tasks[key]]

    def close(self) -> None:
        """End the pool's workers, if it runs; tasks not yet started never run."""
        if self.pool is not None:
            self.pool.close()

    def __enter__(self) -> _Plan:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def verify(
    suites: Iterable[str], n_max: int, *, workers: int = 1, max_n: int = DEFAULT_MAX_COUNT_N
) -> _Plan:
    """Plan a run of the named suites up to size n_max: one claim per
    report, in SUITES order and then by size, which checks and reports
    when called. Symmetry and phi/theta stop at their caps, and transport
    sources at n_max - 2. Every range is checked here, before any claim
    runs; n_max must be at least 1 and leave at least one claim to check.
    The claims share one memo of R_n, so each R_n is built once.

    The plan is a list of its claims. It numbers every task of the run
    once, in one queue: each symmetry and phi/theta claim whole, the
    largest symmetric group scanned first (phi/theta at n scans S_{n+2}),
    and then the pair tasks of every R_n the plan builds, by size. Its task
    table gives each claim and each R_n its own numbers there. When its
    pool would hold one process, for one worker, one CPU, one task or a
    platform without os.fork, each claim runs its numbered tasks in this
    process when it is called. Otherwise the first claim called forks the
    pool's workers and queues every task on them, so the indivisible tasks
    start first and the many small ones fill the gaps. Each claim then
    takes only its own numbers, and the workers are killed once the
    plan's store holds every task's result, or when a claim fails. On
    either path each result is kept in that store, so each task runs once
    per plan: a claim called again reports from the store, and its report
    is the same, elapsed_ms aside. A caller that leaves the plan early
    closes it, by close() or at the end of a `with` block, which kills the
    workers, so the tasks not yet started never run. A process that exits
    or is killed with its plan open leaves no worker running for more than
    a quarter second.

    A report's elapsed_ms is the time of its claim's own work, plus the run
    time of its own tasks where they ran; it never counts the time a claim
    waited behind the tasks of other claims, nor the building of an R_n
    that an earlier claim already built."""
    chosen = set(suites)
    if chosen - set(SUITES):
        raise ValueError(f"unknown suite {min(chosen - set(SUITES))!r}: expected one of {SUITES}")
    if chosen & {"count", "characterization"}:
        # Checked first, so that a run past max_n names its top size.
        _check_count_range(n_max, max_n)
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    caps = {**_scan_caps(), "transport": n_max - 2}
    sizes = {suite: range(1, min(n_max, caps.get(suite, n_max)) + 1) for suite in SUITES}
    claims = [(suite, n) for suite in SUITES if suite in chosen for n in sizes[suite]]
    plan = _Plan(claims, workers, max_n)
    if not plan:
        raise ValueError(f"n_max={n_max} leaves no claim to check")
    return plan


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
    size n. The check is one task, so it runs in this process and workers
    is only echoed; only a larger `verify` plan runs it on a pool."""
    with _Plan([("symmetry", n)], workers) as plan:
        return plan[0]()


def verify_phi_theta(n: int, *, workers: int = 1) -> VerificationReport:
    """Check that projection undoes every lift of every size-n permutation,
    that the lift images tile the symmetric group two sizes up exactly, and
    that projection commutes with reverse and complement there. The check
    is one task, so it runs in this process and workers is only echoed;
    only a larger `verify` plan runs it on a pool."""
    with _Plan([("phi_theta", n)], workers) as plan:
        return plan[0]()


def verify_R_transport(
    n: int, *, workers: int = 1, max_n: int = DEFAULT_MAX_COUNT_N
) -> VerificationReport:
    """Check that projecting any reverse-stable permutation of size n+2
    lands in the reverse-stable set of size n, and that lifting it back by
    its endpoints reassembles the original."""
    with _Plan([("transport", n)], workers, max_n) as plan:
        return plan[0]()
