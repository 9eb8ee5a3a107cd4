"""Outside-in tracing of qvstrain for the benchmark's per-layer run.

``Tracer.install`` replaces each public name in ``FUNCTIONS`` and
``METHODS`` by a wrapper that records one span (id, parent, name, op,
start, end) per call; ``enable(False)`` puts the originals back.  A
function is replaced in every qvstrain module that holds it, because
``search`` and ``cli`` import names such as ``sim_and_overlap`` or
``from_perceptron`` directly; methods are replaced on their class.  The private ``_sim_and_flat`` kernel is not wrapped:
trajectory work is attributed through ``SimAndSearchOracle.plane_marginal``.

Derived counts come only from call arguments, public object attributes
(``n``, ``k``, ``l`` of the oracle and handle) and returned outcomes:

* ``search.sim_and_charged``: sum of r over ``plane_marginal(r)`` calls,
  the AND-simulations the ledger is charged for the Grover iterations;
* ``search.sim_and_executed``: per oracle, the largest r requested, the
  AND-simulations the cached trajectory actually runs;
* ``search.kick_reuse``: ``kick_probability`` calls per distinct (oracle, j);
* ``counting.amp_updates_computed``: 2 (2**l - 1) 2**(l+k+n-1) amplitude
  updates per executed AND-simulation (k = 0 for ``sim_and_overlap``);
* ``search.trajectory_mib_computed``: the largest (r + 1) 2**(l+k+n) 16 B
  trajectory any one oracle holds.

Spans stay in memory until ``write`` saves them as one ``.npz`` file.
"""

from __future__ import annotations

import functools
import sys
import weakref
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

# (defining module, public name); span name "<module>.<name>"
FUNCTIONS = [
    ("cli", "main"),
    ("search", "bounded_error_search"),
    ("search", "train_perceptron"),
    ("counting", "sim_and_overlap"),
    ("counting", "g_tilde_readout"),
    ("counting", "phase_gap_bound_check"),
    ("oracles", "from_perceptron"),
    ("oracles", "controlled_phase_oracle_identity_gap"),
    ("statevec", "new_uniform"),
    ("perceptron", "generate_planted_dataset"),
    ("perceptron", "sample_hyperplanes"),
    ("perceptron", "in_version_space"),
    ("baselines", "classical_version_space_search"),
    ("baselines", "brute_force_g"),
]

# (defining module, class, attribute, span name)
METHODS = [
    ("search", "SimAndSearchOracle", "__init__", "search.SimAndSearchOracle"),
    ("search", "SimAndSearchOracle", "plane_marginal", "search.plane_marginal"),
    ("search", "SimAndSearchOracle", "kick_probability", "search.kick_probability"),
    ("oracles", "OracleHandle", "__init__", "oracles.OracleHandle"),
    ("statevec", "StateVector", "basis", "statevec.StateVector.basis"),
]

# span names reported with self time as well as calls and total time
WITH_SELF_TIME = (
    "cli.main",
    "search.bounded_error_search",
    "search.plane_marginal",
    "search.kick_probability",
    "search.SimAndSearchOracle",
    "search.train_perceptron",
)

SEARCH_SUMS = (
    ("search.rounds", "trials", "rounds"),
    ("search.verification_shots", "trials", "verification_shots"),
    ("search.bit_oracle", "queries", "bit_oracle"),
    ("search.controlled_phase_oracle", "queries", "controlled_phase_oracle"),
)


def _sim_and_updates(n: int, k: int, l: int) -> int:
    """Amplitude updates of one AND-simulation: 2 (2**l - 1) controlled
    Grover steps, each on the control-1 half of a 2**(l+k+n) state."""
    return 2 * ((1 << l) - 1) * (1 << (l + k + n - 1))


class Tracer:
    """Span recorder and derived counters for one traced process."""

    def __init__(self):
        self.names: list[str] = []
        self.op = -1
        self._ids = array("q")
        self._parents = array("q")
        self._name_idx = array("H")
        self._ops = array("i")
        self._starts = array("d")
        self._ends = array("d")
        self._stack: list[list] = []  # [span id, seconds covered by child spans]
        self._next_id = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.trajectory_mib = 0.0
        self._largest_r = weakref.WeakKeyDictionary()  # oracle -> largest r requested
        self._kicked = weakref.WeakKeyDictionary()  # oracle -> set of j
        self._l_bits = None
        self._patches: list[tuple] = []  # (owner, attribute, original, wrapper)

    # -- wrapping --------------------------------------------------------

    def wrap(self, name: str, fn, after=None):
        self.names.append(name)
        idx = len(self.names) - 1

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else -1
            frame = [sid, 0.0]
            self._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                duration = end - start
                if self._stack:
                    self._stack[-1][1] += duration
                self.calls[name] += 1
                self.seconds[name] += duration
                self.self_seconds[name] += duration - frame[1]
                self._ids.append(sid)
                self._parents.append(parent)
                self._name_idx.append(idx)
                self._ops.append(self.op)
                self._starts.append(start)
                self._ends.append(end)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target; qvstrain.cli must already be imported."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "qvstrain" or key.startswith("qvstrain."))]
        self._l_bits = sys.modules["qvstrain.counting"].l_bits
        hooks = {
            "search.bounded_error_search": self._after_search,
            "counting.sim_and_overlap": self._after_overlap,
            "baselines.classical_version_space_search": self._after_classical,
            "search.plane_marginal": self._after_plane_marginal,
            "search.kick_probability": self._after_kick,
        }
        for module_name, attr in FUNCTIONS:
            name = f"{module_name}.{attr}"
            original = getattr(sys.modules[f"qvstrain.{module_name}"], attr)
            wrapper = self.wrap(name, original, hooks.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original, wrapper))
        for module_name, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules[f"qvstrain.{module_name}"], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                traced = classmethod(self.wrap(name, raw.__func__))
            else:
                traced = self.wrap(name, raw, hooks.get(name))
            self._patches.append((cls, attr, raw, traced))
        self.enable(True)

    def enable(self, on: bool) -> None:
        """Put the wrappers in place, or the original objects back."""
        for owner, attr, original, traced in self._patches:
            setattr(owner, attr, traced if on else original)

    # -- derived counts ----------------------------------------------------

    def _after_plane_marginal(self, _result, oracle, r):
        r = int(r)
        self.counts["search.sim_and_charged"] += r
        previous = self._largest_r.get(oracle, 0)
        if r > previous:
            self._largest_r[oracle] = r
            self.counts["search.sim_and_executed"] += r - previous
            self.counts["counting.amp_updates_computed"] += (
                (r - previous) * _sim_and_updates(oracle.n, oracle.k, oracle.l))
        states = max(r, previous) + 1
        mib = states * (1 << (oracle.l + oracle.k + oracle.n)) * 16 / 2**20
        self.trajectory_mib = max(self.trajectory_mib, mib)

    def _after_kick(self, _result, oracle, j):
        seen = self._kicked.setdefault(oracle, set())
        if int(j) not in seen:
            seen.add(int(j))
            self.counts["search.kick_distinct"] += 1

    def _after_overlap(self, _result, _j, handle, l=None):
        l = self._l_bits(handle.n) if l is None else l
        self.counts["counting.amp_updates_computed"] += _sim_and_updates(handle.n, 0, l)

    def _after_search(self, outcome, *_args, **_kwargs):
        for key, field, tag in SEARCH_SUMS:
            self.counts[key] += getattr(outcome, field)[tag]

    def _after_classical(self, outcome, *_args, **_kwargs):
        self.counts["baselines.classical_f"] += outcome.queries["classical_f"]

    # -- results -----------------------------------------------------------

    def _main_durations(self) -> np.ndarray:
        mask = np.frombuffer(self._name_idx, dtype=np.uint16) == self.names.index("cli.main")
        ends = np.frombuffer(self._ends, dtype=np.float64)
        starts = np.frombuffer(self._starts, dtype=np.float64)
        return np.sort(ends[mask] - starts[mask])

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        for name in self.names:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.s"] = (self.seconds[name], "s")
            if name in WITH_SELF_TIME:
                out[f"{name}.self_s"] = (self.self_seconds[name], "s")
        durations = self._main_durations()
        n = len(durations)
        # highest nearest-rank percentile with at least 10 samples beyond
        # it; below 11 samples there is none and the maximum is reported
        tail_rank = n - 11 if n >= 11 else n - 1
        out["cli.main.s_p50"] = (float(np.median(durations)) if n else 0.0, "s")
        out["cli.main.s_tail"] = (float(durations[tail_rank]) if n else 0.0, "s")
        out["cli.main.s_tail_pct"] = (100.0 * (tail_rank + 1) / n if n else 0.0, "%")
        c = self.counts
        charged, executed = c["search.sim_and_charged"], c["search.sim_and_executed"]
        out["search.sim_and_charged"] = (charged, "count")
        out["search.sim_and_executed"] = (executed, "count")
        out["search.trajectory_reuse"] = (charged / executed if executed else 0.0, "ratio")
        kicks, distinct = self.calls["search.kick_probability"], c["search.kick_distinct"]
        out["search.kick_reuse"] = (kicks / distinct if distinct else 0.0, "ratio")
        for key, _field, _tag in SEARCH_SUMS:
            out[key] = (c[key], "count")
        out["search.trajectory_mib_computed"] = (self.trajectory_mib, "MiB")
        updates = c["counting.amp_updates_computed"]
        kernel_s = self.seconds["search.plane_marginal"] + self.seconds["counting.sim_and_overlap"]
        out["counting.amp_updates_computed"] = (updates, "count")
        out["counting.ns_per_amp_update"] = (1e9 * kernel_s / updates if updates else 0.0, "ns")
        out["baselines.classical_f"] = (c["baselines.classical_f"], "count")
        return out

    def write(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            id=np.frombuffer(self._ids, dtype=np.int64),
            parent=np.frombuffer(self._parents, dtype=np.int64),
            name=np.frombuffer(self._name_idx, dtype=np.uint16),
            op=np.frombuffer(self._ops, dtype=np.int32),
            start=np.frombuffer(self._starts, dtype=np.float64),
            end=np.frombuffer(self._ends, dtype=np.float64),
        )
