"""Per-layer timings, taken from outside the program in this process.

Each layer is one module of the package. Every per-call figure is the
median, over REPEATS batches, of a batch's time divided by its calls;
inputs are drawn from the workload's seed. `rskcheck` must be importable
(run.py puts the checkout's `src` on sys.path).
"""

from __future__ import annotations

import contextlib
import importlib
import io
import random
import statistics
import subprocess
import sys
import time
from collections import deque
from itertools import starmap
from math import factorial

import reference as ref
import workloads as wl

REPEATS = 5
SAMPLES = 1000
IMPORT_CODE = "import time; t = time.perf_counter(); import rskcheck.cli; print(time.perf_counter() - t)"


def _per_call_us(fn, args: list[tuple]) -> float:
    batches = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        deque(starmap(fn, args), maxlen=0)
        batches.append((time.perf_counter() - start) / len(args) * 1e6)
    return statistics.median(batches)


def _seconds(fn, *args, **kwargs) -> float:
    start = time.perf_counter()
    fn(*args, **kwargs)
    return time.perf_counter() - start


def layer_metrics(seed: int, workers: int) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit)."""
    # by module path: the package exports a function named rsk as well
    cli, enumeration, evacuation, permutations, reverse_maps, rsk, tableaux = (
        importlib.import_module(f"rskcheck.{name}")
        for name in ("cli", "enumeration", "evacuation", "permutations", "reverse_maps", "rsk", "tableaux")
    )

    rng = random.Random(seed)
    perms = [wl.random_perm(rng, 9) for _ in range(SAMPLES)]
    words = [tuple(w) for w in perms]
    objs = [permutations.Permutation(w) for w in words]
    grids = [ref.insert(w)[1] for w in perms]
    syts = [tableaux.StandardYoungTableau(g) for g in grids]
    hooks = tableaux.enumerate_syt(enumeration.symmetric_hook_shape(9))
    small = [permutations.Permutation(wl.random_perm(rng, 7)) for _ in range(SAMPLES)]
    ends = [rng.sample(range(1, 10), 2) for _ in range(SAMPLES)]
    m: dict[str, tuple[float, str]] = {}

    def us(name: str, fn, args: list[tuple]) -> None:
        m[name] = (_per_call_us(fn, args), "us")

    us("permutations.Permutation.us", permutations.Permutation, [(w,) for w in words])
    us("permutations.next_permutation.us", permutations.next_permutation, [(list(w),) for w in perms])
    us("permutations.unrank.us", permutations.unrank, [(9, rng.randrange(factorial(9))) for _ in range(SAMPLES)])
    us("permutations.ops.us", lambda w: (w.reverse(), w.complement(), w.inverse()), [(w,) for w in objs])

    us("tableaux.validate_grid.us", tableaux.validate_grid, [(g,) for g in grids])
    us("tableaux.StandardYoungTableau.us", tableaux.StandardYoungTableau, [(g,) for g in grids])
    us("tableaux.transpose.us", tableaux.StandardYoungTableau.transpose, [(t,) for t in syts])
    hook11 = enumeration.symmetric_hook_shape(11)
    m["tableaux.enumerate_syt.ms"] = (
        statistics.median(_seconds(tableaux.enumerate_syt, hook11) for _ in range(REPEATS)) * 1e3,
        "ms",
    )

    us("rsk.same_recording_tableau.us", rsk.same_recording_tableau, [(w, w[::-1]) for w in words])
    us("rsk.recording_cells.us", rsk.recording_cells, [(w,) for w in words])
    us("rsk.rsk.us", rsk.rsk, [(w,) for w in objs])
    us("rsk.row_insert.us", rsk.row_insert, [(ref.insert(w[:8])[0], w[8]) for w in perms])

    us("evacuation.evacuation.us", evacuation.evacuation, [(t,) for t in syts])
    us("evacuation.delta.us", evacuation.delta, [(t,) for t in syts])

    us("reverse_maps.phi.us", reverse_maps.phi, [(w, a, b) for w, (a, b) in zip(small, ends)])
    us("reverse_maps.theta.us", reverse_maps.theta, [(w,) for w in objs])
    us("reverse_maps.is_in_R.us", reverse_maps.is_in_R, [(w,) for w in objs])
    us("reverse_maps.is_in_M.us", reverse_maps.is_in_M, [(rng.choice(hooks),) for _ in range(SAMPLES)])

    m.update(_enumeration_metrics(enumeration, workers))
    m.update(_cli_metrics(cli, seed))
    return m


def _enumeration_metrics(enumeration, workers: int) -> dict[str, tuple[float, str]]:
    serial = _seconds(enumeration.count_R, 9, workers=1)
    pooled = _seconds(enumeration.count_R, 9, workers=workers)
    startup = statistics.median(
        _seconds(enumeration.count_R, 5, workers=workers) - _seconds(enumeration.count_R, 5, workers=1)
        for _ in range(REPEATS)
    )
    suites = {
        "verify_characterization": lambda: enumeration.verify_characterization(8, workers=workers),
        "verify_symmetry_relations": lambda: [
            enumeration.verify_symmetry_relations(n, workers=workers) for n in range(1, 8)
        ],
        "verify_phi_theta": lambda: [enumeration.verify_phi_theta(n, workers=workers) for n in range(1, 7)],
        "verify_R_transport": lambda: [enumeration.verify_R_transport(n, workers=workers) for n in range(1, 7)],
        "verify_count_theorem": lambda: enumeration.verify_count_theorem(8, workers=workers),
    }
    m = {
        "enumeration.count_R.serial_perms_per_s": (factorial(9) / serial, "perm/s"),
        "enumeration.count_R.w2_perms_per_s": (factorial(9) / pooled, "perm/s"),
        "enumeration.pool.scaling_efficiency": (serial / (2 * pooled), "ratio"),
        "enumeration.pool.startup_ms": (startup * 1e3, "ms"),
    }
    for name, run in suites.items():
        m[f"enumeration.{name}.s"] = (_seconds(run), "s")
    return m


def _cli_metrics(cli, seed: int) -> dict[str, tuple[float, str]]:
    imports = [
        float(subprocess.run([sys.executable, "-S", "-c", IMPORT_CODE], capture_output=True, text=True, check=True).stdout)
        for _ in range(REPEATS)
    ]
    argvs = [(q["argv"],) for q in wl.make_queries(seed)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        query_us = _per_call_us(cli.main, argvs)
    return {
        "cli.import_ms": (statistics.median(imports) * 1e3, "ms"),
        "cli.main.query_us": (query_us, "us"),
    }


def lockstep_stops(seed: int) -> dict[int, int]:
    """Histogram of the step at which w and reverse w first grow different
    recording cells, over the seeded S_9 sample (10 = never: a member of R_9)."""
    rng = random.Random(seed)
    stops: dict[int, int] = {}
    for _ in range(SAMPLES):
        w = wl.random_perm(rng, 9)
        qw, qr = ref.insert(w)[1], ref.insert(w[::-1])[1]
        cells_w = _cells_by_step(qw)
        cells_r = _cells_by_step(qr)
        step = next((k for k in range(1, 10) if cells_w[k] != cells_r[k]), 10)
        stops[step] = stops.get(step, 0) + 1
    return dict(sorted(stops.items()))


def _cells_by_step(q: ref.Rows) -> dict[int, tuple[int, int]]:
    return {v: (r, c) for r, row in enumerate(q) for c, v in enumerate(row)}
