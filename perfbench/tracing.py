"""Per-layer spans for the traced run, recorded from outside the program.

`install` replaces each traced function of `selkam` by a wrapper, at every
module attribute that holds it: the home module and every module that
imported the name one by one (for example `selector.sublevel_persistence`,
`selector.fiber_sweep`, `selector.caustics`).  One function has one wrapper
and one label, so a call is never counted twice.  A span's self time is its
duration minus the durations of the traced calls made inside it.  Counts are
taken from arguments and return values only.

`torus` helpers such as `PeriodicCubic` are left untraced: they are called
millions of times, so a span around each call would cost more than the work
it measures.  Their time lands in the self time of the traced caller.
"""

import sys
import time
from collections import defaultdict


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _integrate_label(args, kwargs):
    spec = _arg(args, kwargs, 0, "spec")
    return "hamcore.integrate." + ("leapfrog" if spec.is_mechanical else "midpoint")


def _count_integrate(counts, label, args, kwargs, out):
    spec = _arg(args, kwargs, 0, "spec")
    Q = _arg(args, kwargs, 1, "Q")
    nsteps = _arg(args, kwargs, 4, "nsteps")
    size = getattr(Q, "size", 1)
    counts[label + ".traj_steps"] += size // spec.dim * nsteps


def _count_from_flow(counts, label, args, kwargs, out):
    counts[label + ".samples"] += out.t.size


def _count_discrete_action(counts, label, args, kwargs, out):
    # computed from DA.meta, not counted inside the min-plus loop
    if out.kernel is None:
        return
    m = int(out.meta["segments"])
    n = int(out.kernel.grid.size)
    counts["selector.kernel.segments"] += m
    counts["selector.kernel.grid"] = max(counts["selector.kernel.grid"], n)
    counts["selector.minplus_ops"] += (m - 1) * n ** 3


def _count_persistence(counts, label, args, kwargs, out):
    values = _arg(args, kwargs, 0, "values")
    counts[label + ".cells"] += getattr(values, "size", 0)


def _count_fiber_sweep(counts, label, args, kwargs, out):
    counts[label + ".queries"] += len(out)


def _count_invariant_set(counts, label, args, kwargs, out):
    counts[label + ".seeds"] += out.n_seeds
    counts[label + ".survivors"] += len(out)


def _count_critical_value(counts, label, args, kwargs, out):
    counts[label + ".iterations"] += out.iterations


# (module, function, label or label function, counter); the module is the
# one that defines the function
TARGETS = [
    ("hamcore", "parse_hamiltonian", "hamcore.parse_hamiltonian", None),
    ("hamcore", "tonelli_check", "hamcore.tonelli_check", None),
    ("hamcore", "integrate", _integrate_label, _count_integrate),
    ("lagrangian", "from_flow", "lagrangian.from_flow", _count_from_flow),
    ("selector", "build_discrete_action", "selector.build_discrete_action",
     _count_discrete_action),
    ("selector", "graph_selector", "selector.graph_selector", None),
    ("selector", "verify_selector", "selector.verify_selector", None),
    ("selector", "dump_selector", "selector.dump_selector", None),
    ("persistence", "sublevel_persistence", "persistence.sublevel_persistence",
     _count_persistence),
    ("front", "fiber_sweep", "front.fiber_sweep", _count_fiber_sweep),
    ("front", "caustics", "front.caustics", None),
    ("weakkam", "weak_kam_family", "weakkam.weak_kam_family", None),
    ("weakkam", "critical_value", "weakkam.critical_value", _count_critical_value),
    ("weakkam", "lax_oleinik_step", "weakkam.lax_oleinik_step", None),
    ("dynamics", "maximal_invariant_set", "dynamics.maximal_invariant_set",
     _count_invariant_set),
    ("cli", "run", "cli.run", None),
]

# attributes the program calls through that are not the defining module
REQUIRED_ALIASES = [
    "selkam.selector.sublevel_persistence",
    "selkam.selector.fiber_sweep",
    "selkam.selector.caustics",
    "selkam.cli.sublevel_persistence",
]


class Recorder:
    """Spans kept in memory: calls, self time and counts per label."""

    def __init__(self):
        self.stack = []
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.installed = []

    def wrap(self, fn, label, counter):
        stack = self.stack

        def traced(*args, **kwargs):
            name = label if isinstance(label, str) else label(args, kwargs)
            children = [0.0]
            stack.append(children)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                self.calls[name] += 1
                self.self_s[name] += duration - children[0]
            if counter is not None:
                counter(self.counts, name, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self):
        """Point every `selkam` module attribute holding a target at its wrapper."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "selkam" or name.startswith("selkam.")}
        for home, func, label, counter in TARGETS:
            original = getattr(modules["selkam." + home], func)
            wrapper = self.wrap(original, label, counter)
            for modname, mod in modules.items():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self.installed.append(f"{modname}.{attr}")
        missing = [a for a in REQUIRED_ALIASES if a not in self.installed]
        if missing:
            raise RuntimeError(f"traced attributes not found: {missing}")

    def metrics(self, wall_s):
        """Flat per-layer metrics of one operation."""
        out = {}
        for name in sorted(self.calls):
            out[name + ".calls"] = self.calls[name]
            out[name + ".self_s"] = self.self_s[name]
        out.update(self.counts)
        total = {"calls": 0, "traj_steps": 0, "self_s": 0.0}
        for scheme in ("leapfrog", "midpoint"):
            prefix = "hamcore.integrate." + scheme
            for key in total:
                value = out.setdefault(f"{prefix}.{key}", 0)
                total[key] += value
            busy = out[prefix + ".self_s"]
            out[prefix + ".traj_steps_per_s"] = \
                out[prefix + ".traj_steps"] / busy if busy > 0 else 0.0
        for key, value in total.items():
            out["hamcore.integrate." + key] = value
        out["hamcore.integrate.traj_steps_per_s"] = \
            total["traj_steps"] / total["self_s"] if total["self_s"] > 0 else 0.0
        seeds = out.get("dynamics.maximal_invariant_set.seeds", 0)
        if seeds:
            out["dynamics.survivor_ratio"] = \
                out["dynamics.maximal_invariant_set.survivors"] / seeds
        # cli.run is the root span, so the self times sum to its duration;
        # coverage below 1 is time outside it, above 1 a span counted twice
        out["trace.wall_s"] = wall_s
        out["trace.spans"] = sum(self.calls.values())
        out["trace.coverage"] = sum(self.self_s.values()) / wall_s
        return out
