"""Outside tracer: spans around the public functions of the solver layers.

The package's modules import each other's functions by name (``ic`` and
``solve`` hold their own bindings of ``minimize``, ``augment``, ``evaluate``
and friends), so patching a function in its home module alone would miss
most calls.  ``Tracer.install`` rebinds every module-level name in the
loaded ``perivar`` modules that refers to a traced function, and
``uninstall`` puts the originals back.

Spans (function, start, end, parent, instance) are kept in memory as flat
lists and written out at the end; self times and the parent-keyed counts
are derived from them.  Private helpers such as ``_bfs_levels`` stay
unwrapped, and so do ``grid`` and ``measure``, whose functions run once
per face inside other layers and would be distorted by a wrapper.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (module, function) pairs; the module is the layer name in every metric.
TRACED = (
    ("energy", "assemble"),
    ("energy", "freeze"),
    ("energy", "add_volume_term"),
    ("energy", "evaluate"),
    ("energy", "check_submodular"),
    ("maxflow", "minimize"),
    ("maxflow", "max_flow"),
    ("maxflow", "augment"),
    ("maxflow", "parametric_sweep"),
    ("ic", "strong_excess"),
    ("ic", "small_volume_profile"),
    ("ic", "divergence_certificate"),
    ("ic", "capacity"),
    ("solve", "solve_obstacle"),
    ("solve", "solve_dirichlet"),
    ("solve", "solve_volume"),
    ("oracle", "scan_excess"),
    ("oracle", "scan_functional_minimum"),
)
NAMES = tuple(f"{m}.{f}" for m, f in TRACED)
_ID = {name: i for i, name in enumerate(NAMES)}
_AUGMENT = _ID["maxflow.augment"]
_MINIMIZE = _ID["maxflow.minimize"]
_SWEEP = _ID["maxflow.parametric_sweep"]
_STRONG = _ID["ic.strong_excess"]
_PROFILE = _ID["ic.small_volume_profile"]
_CAPACITY = _ID["ic.capacity"]
_SCAN = _ID["oracle.scan_excess"]

# Routes an instance can take, named after the method the library reports.
ROUTES = ("min-cut", "exhaustive", "envelope")


class Tracer:
    def __init__(self):
        self.fn = []  # traced-function id per span
        self.start = []
        self.end = []
        self.parent = []  # span index, -1 for a root span
        self.inst = []  # benchmark instance id
        self.arcs = {}  # augment span -> arc pairs in its network
        self.pieces = {}  # parametric_sweep span -> pieces returned
        self.subsets = {}  # scan_excess span -> nonempty subsets walked
        self.instance = -1
        self.paused = False  # set while the benchmark checks an answer
        self._stack = []
        self._saved = []  # (module, attribute, original)

    def install(self) -> None:
        for module, func in TRACED:
            home = importlib.import_module(f"perivar.{module}")
            original = getattr(home, func)
            wrapper = self._wrap(_ID[f"{module}.{func}"], original)
            for mod in list(sys.modules.values()):
                name = getattr(mod, "__name__", "")
                if name != "perivar" and not name.startswith("perivar."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def _wrap(self, fid, fn):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            idx = len(self.fn)
            self.fn.append(fid)
            self.parent.append(stack[-1] if stack else -1)
            self.inst.append(self.instance)
            self.start.append(0.0)
            self.end.append(0.0)
            if fid == _AUGMENT:
                self.arcs[idx] = len(args[0].to) // 2
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if fid == _SWEEP:
                self.pieces[idx] = len(result)
            elif fid == _SCAN:
                admissible = args[1] if len(args) > 1 else kwargs["admissible"]
                self.subsets[idx] = (1 << len(admissible)) - 1
            return result

        return traced

    def routes(self) -> dict:
        """Route of each instance, read from its spans.

        Enumeration anywhere in the instance makes it ``exhaustive``; a
        parametric sweep, or a profile built from min-cut excess calls
        (the Lagrangian envelope), makes it ``envelope``; otherwise the
        instance was answered by min cuts alone.
        """
        route = {}
        for i, fid in enumerate(self.fn):
            inst = self.inst[i]
            p = self.parent[i]
            if fid == _SCAN:
                route[inst] = "exhaustive"
            elif route.get(inst) != "exhaustive" and (
                fid == _SWEEP or (fid == _STRONG and p >= 0 and self.fn[p] == _PROFILE)
            ):
                route[inst] = "envelope"
            else:
                route.setdefault(inst, "min-cut")
        return route

    def metrics(self) -> dict:
        """Per-layer self time and call counts, plus the derived counts."""
        n = len(self.fn)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        self_s = [0.0] * len(NAMES)
        calls = [0] * len(NAMES)
        forced = bb_nodes = lambdas = 0
        for i in range(n):
            fid = self.fn[i]
            self_s[fid] += self.end[i] - self.start[i] - child[i]
            calls[fid] += 1
            p = self.parent[i]
            pfid = self.fn[p] if p >= 0 else -1
            if fid == _AUGMENT and pfid == _STRONG:
                forced += 1
            elif fid == _MINIMIZE and pfid == _CAPACITY:
                bb_nodes += 1
            elif fid == _STRONG and pfid == _PROFILE:
                lambdas += 1
        out = {}
        for fid, name in enumerate(NAMES):
            out[f"{name}.self_s"] = (self_s[fid], "s")
            out[f"{name}.calls"] = (calls[fid], "count")
        scan_s = self_s[_SCAN]
        subsets = sum(self.subsets.values())
        out.update(
            {
                "maxflow.arcs_solved": (sum(self.arcs.values()), "count"),
                "maxflow.arcs_max": (max(self.arcs.values(), default=0), "count"),
                "maxflow.sweep_pieces": (sum(self.pieces.values()), "count"),
                "ic.forced_probes": (forced, "count"),
                "ic.forced_probes_per_call": (
                    forced / calls[_STRONG] if calls[_STRONG] else 0.0,
                    "ratio",
                ),
                "ic.profile_lambdas": (lambdas, "count"),
                "ic.capacity.bb_nodes": (bb_nodes, "count"),
                "oracle.subsets": (subsets, "count"),
                "oracle.subsets_per_s": (subsets / scan_s if scan_s else 0.0, "1/s"),
            }
        )
        counts = {r: 0 for r in ROUTES}
        for r in self.routes().values():
            counts[r] += 1
        for r in ROUTES:
            out[f"route.{r}"] = (counts[r], "count")
        return out

    def write(self, path) -> None:
        """One line per span: function, start, end, parent span, instance."""
        with open(path, "w") as fh:
            fh.write("span\tfunction\tstart_s\tend_s\tparent\tinstance\n")
            for i in range(len(self.fn)):
                fh.write(
                    f"{i}\t{NAMES[self.fn[i]]}\t{self.start[i]:.9f}\t"
                    f"{self.end[i]:.9f}\t{self.parent[i]}\t{self.inst[i]}\n"
                )
