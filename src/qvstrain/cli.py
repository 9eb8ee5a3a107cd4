"""Command-line experiment harness.

Subcommands: ``train`` (end-to-end version-space training trials), ``verify``
(property suites over the counting circuits), ``sweep`` (quantum vs classical
query scaling on planted instances), ``andor`` (two-level AND-OR evaluation),
``gen-dataset`` (planted dataset files).  Output is JSON lines (one object
per trial) or CSV for sweeps; identical configuration and seed give
byte-identical output.  Exit codes: 0 all checks pass, 1 property violation,
2 usage error, 141 output closed by its reader (as SIGPIPE would end it).
The seeded trials of ``train`` and ``sweep`` run in :mod:`experiments`;
this module checks the flags and writes the rows.

Each command's options are declared once, in ``COMMANDS``, and two parsers
are built from them (:func:`build_parser`): a call whose argv starts with a
command name is parsed by that command's parser alone, and the whole tree
(the top-level parser with every command as a subparser) is built only for
any other argv, or to report arguments the command's parser left over.
"""

from __future__ import annotations

import argparse
import bisect
import csv
import json
import os
import sys

import numpy as np

from . import __version__
from .andor import evaluate_direct, evaluate_via_search, load_instance, table_from_blocks
from .baselines import brute_force_g
from .counting import _readouts, l_bits, phase_gap_bound_check
from .experiments import fit_exponent, run_payloads, sweep_cells, train_trial
from .oracles import (
    OracleHandle,
    TruthTable,
    _column_counts,
    apply_phase_oracle,
    controlled_phase_oracle_identity_gap,
    load_truth_table,
)
from .perceptron import (
    _check_gamma,
    generate_planted_dataset,
    geometric_margin,
    load_dataset,
    required_sample_count,
    save_dataset,
)
from .search import _require_bytes, _require_state_fits, search_state_bytes
from .statevec import new_uniform


def _emit(stream, obj) -> None:
    stream.write(json.dumps(obj, sort_keys=True) + "\n")


def _check_count(name: str, value: int) -> None:
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")


def _check_seed(value: int) -> None:
    if value < 0:
        raise ValueError(f"--seed must be >= 0, got {value}")


def _int_list(flag: str, text: str, form: str = "comma-separated integers",
              length: int | None = None) -> list[int]:
    """The comma-separated integers of ``text``, ``length`` of them if
    given; otherwise a ValueError naming ``flag`` and its ``form``."""
    try:
        values = [int(v) for v in text.split(",")]
        if length in (None, len(values)):
            return values
    except ValueError:
        pass
    raise ValueError(f"{flag} must be {form}, got {text!r}")


# -- train ---------------------------------------------------------------------


def cmd_train(args, out) -> int:
    if args.dataset is None and (args.n is None or args.m is None or args.gamma is None):
        raise ValueError("provide --dataset or all of --n/--m/--gamma")
    _check_seed(args.seed)
    if args.gamma is not None:
        _check_gamma(args.gamma)
    if not (0.0 < args.epsilon < 1.0):
        raise ValueError(f"epsilon must be in (0, 1), got {args.epsilon}")
    _check_count("--trials", args.trials)
    _check_count("--workers", args.workers)
    if args.dataset is None:
        _check_count("--n", args.n)
        _check_count("--m", args.m)
        data, n_points, gamma = None, args.n, args.gamma
    else:
        # one parse for every trial and worker; a malformed file exits 2 here
        data = load_dataset(args.dataset)
        n_points, gamma = data.n_points, data.claimed_margin
    K = required_sample_count(gamma, args.epsilon, args.c_constant)
    _require_state_fits(n_points, K)
    payloads = [
        (t, args.seed + t, data, args.n, args.m, args.gamma,
         args.epsilon, args.c_constant)
        for t in range(args.trials)
    ]
    rows = run_payloads(train_trial, payloads, args.workers, search_state_bytes(n_points, K))
    successes = 0
    for row in rows:
        successes += bool(row["in_version_space"])
        _emit(out, row)
    _emit(out, {"summary": True, "trials": args.trials,
                "success_fraction": successes / args.trials})
    return 0


# -- verify --------------------------------------------------------------------

# Peak bytes per entry of a table the sign-and-fidelity suite draws: the
# uniform draws and their comparison (8 + 1); the suite then holds only the
# bit table, whose column counts and ANDs it keeps.  On top of that,
# VERIFY_SMALL_BYTES holds numpy's cast buffer (8192 doubles) for those
# counts, one block of the readout's spectrum (counting.READOUT_BLOCK_AMPS
# values, about 103 KB at its peak with numpy's buffers), and the columns
# held for their check with the check's per-column vectors:
# VERIFY_CHECK_COLUMNS columns at most, from up to half as many tables.
# Under tracemalloc the suite peaked at 119-121 KB on 1500 tables of
# n <= 8, k = 1 (seeds 0-1), whose budget is 136 KB; at 256 columns it
# overran that budget.
VERIFY_BYTES_PER_ENTRY = 9
VERIFY_SMALL_BYTES = 1 << 17
VERIFY_CHECK_COLUMNS = 1 << 7
# values of m per array expression in the phase-gap suite
GAP_BLOCK = 1 << 16


def _verify_table_bytes(n_max: int, k_max: int) -> int:
    """Peak bytes of drawing the largest table verify can draw, 2**(n_max +
    k_max) entries, and building its oracle handle.  An exponent past 128
    counts as 128: that many bytes are already over any limit."""
    return (VERIFY_BYTES_PER_ENTRY << min(n_max + k_max, 128)) + VERIFY_SMALL_BYTES


def _random_table(rng, n_max: int, k_max: int, force_close_column: bool = False) -> TruthTable:
    n = int(rng.integers(1, n_max + 1))
    k = int(rng.integers(1, k_max + 1))
    rows, cols = 1 << n, 1 << k
    density = rng.uniform(0.2, 0.95)
    bits = (rng.random((rows, cols)) < density).astype(np.uint8)
    # keep the sweep interesting: sometimes plant an all-ones column and
    # sometimes the hardest nearly-all-ones column
    if force_close_column or rng.random() < 0.4:
        j = int(rng.integers(0, cols))
        bits[:, j] = 1
        bits[int(rng.integers(0, rows)), j] = 0
    if rng.random() < 0.5:
        bits[:, int(rng.integers(0, cols))] = 1
    return TruthTable(bits)


def _sign_fidelity_sweep(rng, tables: int, n_max: int, k_max: int, fault_l: bool):
    """Draw ``tables`` tables and check the readout of every padded column:
    its sign is -(-1)**g, its fidelity at least 2/3, and exactly 1 where g
    = 1.  Each table keeps only its column counts and ANDs, copied into
    buffers of VERIFY_CHECK_COLUMNS columns; the held columns are checked
    together before they would overflow them, and at the end."""
    violations, held = [], []  # held: (table, n, k, l, first column, first buffer row)
    counts_at = np.empty(VERIFY_CHECK_COLUMNS)
    g_at = np.empty(VERIFY_CHECK_COLUMNS, dtype=np.uint8)
    checked = waiting = 0
    for t in range(tables):
        handle = OracleHandle(_random_table(rng, n_max, k_max, force_close_column=fault_l))
        n, k = handle.n, handle.k
        l = max(1, (n + 1) // 2 if fault_l else l_bits(n))
        g = np.zeros(1 << k, dtype=np.uint8)
        g[: handle.n_cols] = brute_force_g(handle)
        counts = _column_counts(handle)
        for first in range(0, g.size, VERIFY_CHECK_COLUMNS):
            size = min(VERIFY_CHECK_COLUMNS, g.size - first)
            if waiting + size > VERIFY_CHECK_COLUMNS:
                violations += _readout_violations(held, counts_at[:waiting], g_at[:waiting])
                held, waiting = [], 0
            held.append((t, n, k, l, first, waiting))
            counts_at[waiting : waiting + size] = counts[first : first + size]
            g_at[waiting : waiting + size] = g[first : first + size]
            waiting += size
        checked += g.size
        del handle, counts, g  # so the next table is drawn with none held (_verify_table_bytes)
    if held:
        violations += _readout_violations(held, counts_at[:waiting], g_at[:waiting])
    return checked, violations


def _readout_violations(held, counts: np.ndarray, g: np.ndarray) -> list[dict]:
    """The violation rows of the held columns, with ``counts`` and ANDs
    ``g``, in (table, j) order.  A readout reads its column through the
    count alone, and l depends on n alone, so each distinct count of each n
    is read once (:func:`~qvstrain.counting._readouts`) and every column
    is checked at once."""
    tables, ns, ks, ls, firsts, starts = zip(*held)
    # one key per (n, count), ordered by n, then count: counts lie in [0, 2**n]
    span = float((1 << max(ns)) + 1)
    keys, index = np.unique(np.repeat(ns, np.diff([*starts, g.size])) * span + counts,
                            return_inverse=True)
    key_n = keys // span
    sign, fidelity = np.empty(keys.size, dtype=np.int8), np.empty(keys.size)
    for size, l in dict(zip(ns, ls)).items():
        at = key_n == size
        _, sign[at], fidelity[at] = _readouts(keys[at] - size * span, size, l)
    sign, fidelity = sign[index], fidelity[index]
    bad = ((sign != np.where(g, -1, 1)) | (fidelity < 2.0 / 3.0)
           | ((g == 1) & (np.abs(fidelity - 1.0) > 1e-9)))
    rows = []
    for i in np.flatnonzero(bad).tolist():
        h = bisect.bisect_right(starts, i) - 1
        rows.append({"table": tables[h], "n": ns[h], "k": ks[h], "j": firsts[h] + i - starts[h],
                     "l": ls[h], "g": int(g[i]), "sign": int(sign[i]),
                     "fidelity": float(fidelity[i])})
    return rows


def _phase_gap_sweep(n_max: int):
    violations = []
    checked = 0
    for n in range(1, n_max + 1):
        for first in range(1, (1 << n) + 1, GAP_BLOCK):
            m = np.arange(first, min(first + GAP_BLOCK, (1 << n) + 1))
            checked += m.size
            violations += [{"n": n, "m": int(v)} for v in m[~phase_gap_bound_check(n, m)]]
    return checked, violations


def _oracle_identity_sweep(rng, tables: int):
    violations = []
    for t in range(tables):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(1, min(5, 9 - n)))
        bits = (rng.random((1 << n, 1 << k)) < rng.uniform(0.2, 0.8)).astype(np.uint8)
        table = TruthTable(bits)
        gap = controlled_phase_oracle_identity_gap(table)
        handle = OracleHandle(table)
        layout = handle.layout(l=1, scratch=True)
        state = new_uniform(layout)
        before = handle.ledger.snapshot()
        apply_phase_oracle(state, layout, handle)
        mid = handle.ledger.snapshot()
        apply_phase_oracle(state, layout, handle, controls=(layout.phase_qubits[0],))
        after = handle.ledger.snapshot()
        plain_cost = mid["bit_oracle"] - before["bit_oracle"]
        ctrl_cost = after["bit_oracle"] - mid["bit_oracle"]
        if gap > 1e-10 or plain_cost != 1 or ctrl_cost != 2:
            violations.append({
                "table": t, "n": n, "k": k, "gap": gap,
                "plain_bit_cost": plain_cost, "controlled_bit_cost": ctrl_cost,
            })
    return tables, violations


def cmd_verify(args, out) -> int:
    for flag in ("--tables", "--n-max", "--k-max", "--gap-n-max", "--identity-tables"):
        _check_count(flag, getattr(args, flag[2:].replace("-", "_")))
    _check_seed(args.seed)
    _require_bytes(_verify_table_bytes(args.n_max, args.k_max), "the tables need")
    rng = np.random.default_rng(args.seed)
    fault = bool(args.inject_precision_fault)
    # (suite, sweep, extra row fields), run in order: two share the generator
    suites = [("sign_and_fidelity",
               lambda: _sign_fidelity_sweep(rng, args.tables, args.n_max, args.k_max, fault),
               {"forced_low_precision": fault})]
    if not fault:
        suites += [
            ("phase_gap_bound", lambda: _phase_gap_sweep(args.gap_n_max), {}),
            ("controlled_oracle_identity",
             lambda: _oracle_identity_sweep(rng, args.identity_tables), {}),
        ]
    any_violation = False
    for suite, sweep, extra in suites:
        checked, violations = sweep()
        _emit(out, {"suite": suite, "checked": checked,
                    "violations": len(violations), **extra})
        for v in violations[:10]:
            _emit(out, {"violation": suite, **v})
        any_violation |= bool(violations)
    _emit(out, {"summary": True, "ok": not any_violation})
    return 1 if any_violation else 0


# -- sweep ---------------------------------------------------------------------

def cmd_sweep(args, out) -> int:
    n_grid = _int_list("--n-grid", args.n_grid)
    k_grid = _int_list("--k-grid", args.k_grid)
    for flag, grid in (("--n-grid", n_grid), ("--k-grid", k_grid)):
        for v in grid:
            _check_count(flag, v)
    if len(set(n_grid)) < len(n_grid) or len(set(k_grid)) < len(k_grid):
        raise ValueError("grid values must be distinct")
    _check_gamma(args.gamma)
    _check_count("--trials", args.trials)
    _check_count("--workers", args.workers)
    _check_seed(args.seed)
    cells = [(n, k) for n in n_grid for k in k_grid]
    for n_points, n_planes in cells:
        _require_state_fits(n_points, n_planes)
    writer = csv.writer(out)
    writer.writerow(["kind", "N", "K", "gamma", "trials",
                     "median_quantum_bit_queries", "median_classical_queries",
                     "found_rate", "sound", "slope_axis", "slope"])
    results = sweep_cells(cells, args.gamma, args.trials, args.seed, args.workers)
    for cell, result in zip(cells, results):
        writer.writerow(["cell", *cell, args.gamma, args.trials, *result, "", ""])
    for axis, grid, other_grid in (("N", n_grid, k_grid), ("K", k_grid, n_grid)):
        if len(grid) >= 2 and len(other_grid) == 1:
            # the cells run N-major, so with one value on the other axis
            # they are this axis's grid in order
            slope = fit_exponent(grid, [quantum for quantum, *_ in results])
            writer.writerow(["fit", "", "", args.gamma, args.trials, "", "", "", "", axis, slope])
    return 0 if all(sound for *_, sound in results) else 1


# -- andor ---------------------------------------------------------------------


def cmd_andor(args, out) -> int:
    if sum(v is not None for v in (args.file, args.table, args.random)) != 1:
        raise ValueError("provide exactly one of --file / --table / --random")
    _check_seed(args.seed)
    if args.random is None:
        # one instance from a file; a truth table's columns are its AND-blocks
        table = (load_truth_table(args.table) if args.table is not None
                 else load_instance(args.file))
        _require_state_fits(table.n_rows, table.n_cols)
        direct = evaluate_direct(table)
        via, outcome = evaluate_via_search(table, rng_seed=args.seed)
        _emit(out, {"N": table.n_rows, "K": table.n_cols, "direct": direct,
                    "via_search": via, "agree": direct == via,
                    "index": outcome.result, "queries": outcome.queries})
        return 0
    n, k, count = _int_list("--random", args.random, "N,K,COUNT", 3)
    for name, value in (("N", n), ("K", k), ("COUNT", count)):
        _check_count(f"--random {name}", value)
    _require_state_fits(n, k)
    rng = np.random.default_rng(args.seed)
    agreements = 0
    for t in range(count):
        z = (rng.random(n * k) < rng.uniform(0.2, 0.95)).astype(np.uint8)
        table = table_from_blocks(n, k, z)
        direct = evaluate_direct(table)
        via, outcome = evaluate_via_search(table, rng_seed=int(rng.integers(2**63)))
        agree = direct == via
        agreements += agree
        _emit(out, {"instance": t, "direct": direct, "via_search": via,
                    "agree": agree, "queries": outcome.queries})
    _emit(out, {"summary": True, "instances": count,
                "agreement_fraction": agreements / count})
    return 0


# -- gen-dataset ---------------------------------------------------------------


def cmd_gen_dataset(args, out) -> int:
    _check_gamma(args.gamma)
    _check_count("--n", args.n)
    _check_count("--m", args.m)
    _check_seed(args.seed)
    data, planted = generate_planted_dataset(args.n, args.m, args.gamma, rng_seed=args.seed)
    save_dataset(data, args.out_file)
    _emit(out, {
        "file": args.out_file, "n": data.n_points, "m": data.dim,
        "gamma": data.claimed_margin,
        "planted_margin": geometric_margin(data, planted),
        "planted_w": [float(v) for v in planted[:-1]], "planted_b": float(planted[-1]),
    })
    return 0


# -- entry point ----------------------------------------------------------------


# name: (help, handler, options as (flag, add_argument keywords)); every
# option is declared here once
COMMANDS = {
    "train": ("run end-to-end training trials", cmd_train, (
        ("--dataset", dict(help="dataset file (header 'N M gamma')")),
        ("--n", dict(type=int, help="points per generated dataset")),
        ("--m", dict(type=int, help="feature dimension")),
        ("--gamma", dict(type=float, help="planted margin")),
        ("--epsilon", dict(type=float, default=0.1)),
        ("--c-constant", dict(type=float, default=2.0,
                              help="constant in K = ceil(c ln(1/eps) / gamma)")),
        ("--trials", dict(type=int, default=1)),
        ("--seed", dict(type=int, required=True)),
        ("--workers", dict(type=int, default=1)),
    )),
    "verify": ("run the property suites", cmd_verify, (
        ("--seed", dict(type=int, default=7)),
        ("--tables", dict(type=int, default=50)),
        ("--n-max", dict(type=int, default=5)),
        ("--k-max", dict(type=int, default=3)),
        ("--gap-n-max", dict(type=int, default=12)),
        ("--identity-tables", dict(type=int, default=20)),
        ("--inject-precision-fault", dict(
            action="store_true",
            help="force the phase register down to ceil(n/2) bits; the "
                 "sweep is then expected to report violations")),
    )),
    "sweep": ("query scaling: quantum vs classical", cmd_sweep, (
        ("--n-grid", dict(default="8,16,32,64")),
        ("--k-grid", dict(default="8")),
        ("--gamma", dict(type=float, default=0.2)),
        ("--trials", dict(type=int, default=9)),
        ("--seed", dict(type=int, required=True)),
        ("--workers", dict(type=int, default=1)),
    )),
    "andor": ("evaluate two-level AND-OR instances", cmd_andor, (
        ("--file", dict(help="instance file ('N K' header, one 0/1 line)")),
        ("--table", dict(help="truth-table file ('N K' header, N bit rows)")),
        ("--random", dict(help="N,K,COUNT random batch")),
        ("--seed", dict(type=int, required=True)),
    )),
    "gen-dataset": ("write a planted dataset file", cmd_gen_dataset, (
        ("--n", dict(type=int, required=True)),
        ("--m", dict(type=int, default=2)),
        ("--gamma", dict(type=float, required=True)),
        ("--seed", dict(type=int, required=True)),
        ("--out-file", dict(required=True)),
    )),
}


def _add_command(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """``parser`` with command ``name``'s options and handler."""
    _, func, options = COMMANDS[name]
    for flag, spec in options:
        parser.add_argument(flag, **spec)
    parser.set_defaults(func=func, command=name)
    return parser


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser.  With ``command``, that command's parser alone,
    named ``qvstrain <command>`` as its subparser is, so its help and usage
    errors read the same; it parses the arguments after the command name.
    ``None`` builds the whole tree: the top-level parser with every command
    as a subparser, which parses a whole argv."""
    if command is not None:
        return _add_command(argparse.ArgumentParser(prog=f"qvstrain {command}"), command)
    parser = argparse.ArgumentParser(
        prog="qvstrain",
        description="Quantum version-space perceptron training: simulator and benchmarks",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in COMMANDS.items():
        _add_command(sub.add_parser(name, help=help_text), name)
    return parser


def main(argv=None, out=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        # the top-level options take no value and exit, so the tree would
        # hand an argv that starts with a command name, whole, to that
        # command's subparser: that parser alone parses it, and the tree is
        # built only to report what it leaves over, in the tree's words
        if argv and argv[0] in COMMANDS:
            args, extra = build_parser(argv[0]).parse_known_args(argv[1:])
            if extra:
                build_parser().error(f"unrecognized arguments: {' '.join(extra)}")
        else:
            args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors already
        return int(exc.code or 0)
    stream = out if out is not None else sys.stdout
    try:
        code = args.func(args, stream)
        stream.flush()
        return code
    except BrokenPipeError:
        # the reader closed the output early (``| head``): not a usage error.
        # Exit quietly with a shell's status for SIGPIPE, and point stdout at
        # devnull so the flush at interpreter exit cannot raise again.
        if stream is sys.stdout:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return 141
    # MemoryError: the checks bound the search, which allocates its arrays
    # once, not what a command builds around it (its instance, say)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
