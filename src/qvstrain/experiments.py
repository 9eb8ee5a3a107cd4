"""The seeded trials of ``train`` (:func:`train_trial`) and ``sweep``
(:func:`sweep_cells`, over single-solution instances), run through one
process pool (:func:`run_payloads`), which yields each result in order as
it ends, and the exponent fit of a sweep axis.  A trial's output depends
only on its seed, not on the worker count."""

from __future__ import annotations

import os
from collections import deque

import numpy as np

from .baselines import brute_force_g, classical_version_space_search
from .oracles import OracleHandle, TruthTable, from_perceptron
from .perceptron import generate_planted_dataset, in_version_space, sample_hyperplanes
from .search import (SimAndSearchOracle, bounded_error_search, physical_memory,
                     search_state_bytes, train_perceptron)


def workers_that_run(workers: int) -> int:
    """``workers`` capped at one per CPU: the most processes a pool of them
    runs at once."""
    if workers == 1:  # os.cpu_count() reads a file under /sys: one worker skips it
        return 1
    return min(workers, os.cpu_count() or 1)


def run_payloads(fn, payloads, workers: int, need: int):
    """Yield ``fn`` of every payload in order, through one pool of ``workers``
    processes capped at one per payload and per CPU (a forking pool starts
    them all at its first submit) and at as many searches of ``need`` bytes
    as physical memory holds at once, or serially when that cap is one.  At
    most two payloads per process are submitted and not yet yielded.  Each
    process still checks its own search against its address-space limit,
    which applies to each process alone."""
    workers = min(workers_that_run(workers), len(payloads))
    if workers > 1:  # one process needs no memory figure
        workers = min(workers, physical_memory() // need)
    if workers > 1:
        # imported here: it loads multiprocessing, which one worker never uses
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            pending = deque()
            for payload in payloads:
                if len(pending) == 2 * workers:
                    yield pending.popleft().result()
                pending.append(pool.submit(fn, payload))
            yield from (future.result() for future in pending)
    else:
        yield from map(fn, payloads)


def train_trial(first_seed, data, n, m, gamma, epsilon, c, trial):
    seed = first_seed + trial
    if data is None:
        data, _ = generate_planted_dataset(n, m, gamma, rng_seed=seed)
    result = train_perceptron(data, epsilon, rng_seed=seed, c=c)
    ok = result.found and in_version_space(data, result.plane)
    return {
        "trial": trial,
        "seed": seed,
        "n": data.n_points,
        "m": data.dim,
        "gamma": data.claimed_margin,
        "K": result.sampled,
        "found": result.found,
        "index": result.outcome.result,
        "in_version_space": bool(ok) if result.found else None,
        "failure": result.failure_kind,
        "queries": result.outcome.queries,
    }


# Bytes of search state (search_state_bytes with a table count) that one
# stack of a cell's trials may hold: the trials are searched in groups as
# large as fit, and a table over it is searched alone.  A stack saves numpy
# calls but advances every table to the largest r any of them asks for, so
# it pays only while a table's arithmetic is small.  In one-cell sweeps of
# 18 trials (one BLAS thread, 2 vCPUs), every stack of at most 1.5 MiB ran
# faster than its tables searched alone (64 x 8 in groups of 2-6, 128 x 8
# and 64 x 64 in pairs); of the larger ones, 64 x 64 in groups of 6-18 and
# 128 x 16 in groups of 3-9 ran 5-10% slower.
STACK_BYTES = 3 << 19


def single_solution_instance(n_points: int, n_planes: int, gamma: float, seed) -> TruthTable:
    """N x K truth table of a planted dataset against K planes: the planted
    one (margin >= gamma, so an all-ones column) at a seeded position, and
    the first non-member columns, in draw order, of batches of ``n_planes``
    Gaussian planes, each batch classified in one table and its kept
    columns written straight into the table around the planted one."""
    rng = np.random.default_rng(seed)
    data, _ = generate_planted_dataset(n_points, 2, gamma, rng_seed=int(rng.integers(2**63)))
    position = int(rng.integers(0, n_planes))
    bits = np.ones((n_points, n_planes), dtype=np.uint8)
    targets = np.arange(n_planes - 1)  # the non-member columns, in order
    targets[position:] += 1
    filled = 0
    while filled < n_planes - 1:
        batch = from_perceptron(data, sample_hyperplanes(n_planes, 2, int(rng.integers(2**63)))).bits
        kept = np.flatnonzero(~batch.all(axis=0))[: targets.size - filled]
        bits[:, targets[filled : filled + kept.size]] = batch[:, kept]
        filled += kept.size
    return TruthTable(bits)


def _stack_size(n_points: int, n_planes: int, most: int) -> int:
    """Trials of an N x K cell per stack: as many as fit STACK_BYTES, at
    least one and at most ``most``."""
    size = 1
    while size < most and search_state_bytes(n_points, n_planes, size + 1) <= STACK_BYTES:
        size += 1
    return size


def _cell_group(payload) -> list[tuple[int, int, bool, bool]]:
    """(quantum bit queries, classical queries, found, sound) per seed of a
    group of a cell's trials: each seed draws its instance and seeds its
    search, and the group's tables are searched through one stack
    (:meth:`SimAndSearchOracle.stack`)."""
    (n_points, n_planes, gamma, seeds) = payload
    handles = [OracleHandle(single_solution_instance(n_points, n_planes, gamma, seed))
               for seed in seeds]
    rows = []
    for seed, oracle in zip(seeds, SimAndSearchOracle.stack(handles)):
        outcome = bounded_error_search(oracle, rng_seed=seed)
        sound = (not outcome.found) or bool(brute_force_g(oracle.handle)[outcome.index])
        classical = classical_version_space_search(oracle.handle)
        rows.append((outcome.queries["bit_oracle"], classical.queries["classical_f"],
                     outcome.found, sound))
    return rows


def sweep_cells(cells, gamma: float, trials: int, seed: int,
                workers: int) -> list[tuple[float, float, float, bool]]:
    """Per (N, K) cell, in order: the median quantum bit queries, the median
    classical queries, the rate of found solutions and whether every found
    one is a solution, over ``trials`` trials.  Trial t of cell c has seed
    ``seed + max(10_000, trials) c + t``, so no two trials share one; a
    cell's trials are searched in groups (slices of its seed range) of at
    most STACK_BYTES, small enough that every worker that runs gets one, and
    its rows are reduced to its four numbers as its last group arrives."""
    most = min(trials, -(-trials * len(cells) // workers_that_run(workers)))
    stride = max(10_000, trials)
    payloads = []
    for c, (n_points, n_planes) in enumerate(cells):
        seeds = range(seed + stride * c, seed + stride * c + trials)
        size = _stack_size(n_points, n_planes, most)
        payloads += [(n_points, n_planes, gamma, seeds[first : first + size])
                     for first in range(0, trials, size)]
    need = max(search_state_bytes(n, k, len(group)) for n, k, _, group in payloads)
    results, rows = [], []
    for group in run_payloads(_cell_group, payloads, workers, need):
        rows += group
        if len(rows) == trials:  # a cell's last group
            quantum, classical, found, sound = zip(*rows)
            results.append((float(np.median(quantum)), float(np.median(classical)),
                            sum(found) / trials, all(sound)))
            rows = []
    return results


def fit_exponent(sizes, values) -> float:
    """The slope of the least-squares line through (log size, log value):
    the exponent of a power law values ~ sizes ** slope."""
    return float(np.polyfit(np.log(sizes), np.log(values), 1)[0])
