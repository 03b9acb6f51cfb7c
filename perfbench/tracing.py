"""Per-layer tracing of fracvar, installed from outside the package.

The layers are the package modules ``cli``, ``specfun``, ``operators``,
``expansions``, ``direct`` and ``indirect``.  ``Tracer.install`` replaces
every public function of those modules, in every fracvar namespace that
binds it (the modules import each other's functions by name), with a timing
wrapper; ``uninstall`` puts the originals back.  From ``cli`` only ``main``
is wrapped, so the CLI's helpers and the ``_functions`` catalog count as
``cli`` self time.

The coarse steps of a study (``SPANNED``) record one span each (name,
start, end, parent span) in memory.  Every other wrapped call, such as the
leaves that run up to millions of times per study (``gamma``, the
Lagrangian callables, the TPBVP rhs), only adds to per-name and
per-(parent, name) counters and summed time, so memory stays bounded.
Spans beyond ``MAX_SPANS`` are counted, not kept.  A call's self time is
its duration minus the duration of the wrapped calls made inside it, so the
layers' self times add up to the root calls' time.

The three kinds of callables that the package hands around rather than
binds by name are wrapped where they are made: the stationarity residual
(``direct.residual``), the Lagrangian callables of the catalog problems
(``direct.lagrangian``) and the right-hand side of the catalog TPBVPs
(``indirect.rhs``).
"""

import dataclasses
import functools
import inspect
import json
import sys
import time

LAYERS = ("cli", "specfun", "operators", "expansions", "direct", "indirect")

#: Several functions reported under one name.
ALIASES = {
    "expansions.moments_vp": "expansions.moments",
    "expansions.moments_wp": "expansions.moments",
    "expansions.hadamard_moments_vp": "expansions.moments",
    "expansions.hadamard_moments_wp": "expansions.moments",
}

#: Calls recorded as one span each: the coarse steps of a study.  Every
#: other wrapped name only adds to per-(parent, name) counters.
SPANNED = {
    "cli.main",
    "direct.solve_direct",
    "indirect.solve_linear_tpbvp",
    "operators.gl_left_all",
    "operators.gl_right_all",
    "operators.diethelm_caputo",
    "expansions.expand_integer_left",
    "expansions.expand_moment_left",
    "expansions.expand_atanackovic",
    "expansions.hadamard_expand_moment",
    "expansions.hadamard_reference",
}


def _moment_points(x, p, t, a=None, quad_n=None, b=None):
    """Points at which a moment quadrature evaluates the user's x."""
    return 0 if t == (a if a is not None else b) else quad_n + 1


#: Work counters: name -> (counter, function of the call's arguments).
COUNTERS = {
    "operators.gl_weights": ("operators.gl_weights.terms", lambda alpha, K: K + 1),
    "expansions.moments": ("expansions.integrand_points", _moment_points),
}


#: Spans kept in memory; later ones are only counted.
MAX_SPANS = 200_000


class Tracer:
    def __init__(self):
        self.stats = {}  # name -> [calls, total_s, self_s]
        self.by_parent = {}  # (parent name, name) -> [calls, total_s], names not spanned
        self.counters = {counter: 0 for counter, _ in COUNTERS.values()}
        self.spans = []  # [name, start, end, parent span index or -1]
        self.dropped_spans = 0
        self._stack = []  # frames: [name, child_s, span index]
        self._patched = []  # (namespace dict, attribute, original)

    # -- wrapping -----------------------------------------------------------

    def wrap(self, name, fn, post=None):
        """Timing wrapper of ``fn`` reported as ``name``; ``post`` maps the result."""
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        spanned = name in SPANNED
        counter = COUNTERS.get(name)
        stack, spans, by_parent, counters = self._stack, self.spans, self.by_parent, self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            enclosing = parent[2] if parent else -1
            own = None
            if spanned:
                if len(spans) < MAX_SPANS:
                    spans.append([name, 0.0, 0.0, enclosing])
                    own = len(spans) - 1
                else:
                    self.dropped_spans += 1
            frame = [name, 0.0, enclosing if own is None else own]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return post(result) if post else result
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[1]
                if parent is not None:
                    parent[1] += elapsed
                if own is not None:
                    spans[own][1] = start
                    spans[own][2] = end
                elif not spanned:
                    key = (parent[0] if parent else None, name)
                    acc = by_parent.get(key)
                    if acc is None:
                        acc = by_parent[key] = [0, 0.0]
                    acc[0] += 1
                    acc[1] += elapsed
                if counter is not None:
                    counters[counter[0]] += counter[1](*args, **kwargs)

        return traced

    def _wrap_lagrangian(self, problem):
        lag = problem.lagrangian
        fields = ("L", "dL_dx", "dL_dxdot", "dL_ddalpha")
        wrapped = {f: self.wrap("direct.lagrangian", getattr(lag, f)) for f in fields}
        return dataclasses.replace(problem, lagrangian=dataclasses.replace(lag, **wrapped))

    def _post_hooks(self):
        def residual(system):
            return dataclasses.replace(system, residual=self.wrap("direct.residual", system.residual))

        def rhs(system):
            return dataclasses.replace(system, rhs=self.wrap("indirect.rhs", system.rhs))

        return {
            "direct.stationarity": residual,
            "direct.example1_problem": self._wrap_lagrangian,
            "direct.example2_problem": self._wrap_lagrangian,
            "direct.example3_problem": self._wrap_lagrangian,
            "indirect.assemble_tpbvp_example2": rhs,
            "indirect.assemble_tpbvp_example4": rhs,
        }

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap the public functions of every layer in every fracvar namespace."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = {n: m for n, m in sys.modules.items() if n == "fracvar" or n.startswith("fracvar.")}
        hooks = self._post_hooks()
        wrappers = {}
        for layer in LAYERS:
            module = modules[f"fracvar.{layer}"]
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__ or (layer == "cli" and attr != "main"):
                    continue
                name = f"{layer}.{attr}"
                wrappers[id(obj)] = self.wrap(ALIASES.get(name, name), obj, hooks.get(name))
        for module in modules.values():
            namespace = vars(module)
            for attr, obj in list(namespace.items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patched.append((namespace, attr, obj))
                    namespace[attr] = wrapper

    def uninstall(self):
        for namespace, attr, original in reversed(self._patched):
            namespace[attr] = original
        self._patched.clear()

    # -- results ------------------------------------------------------------

    def layer_self_s(self):
        out = dict.fromkeys(LAYERS, 0.0)
        for name, (_, _, self_s) in self.stats.items():
            out[name.split(".")[0]] += self_s
        return out

    def dump(self, path, meta):
        """Write spans (times relative to the first span) and counters as JSON."""
        origin = min((s[1] for s in self.spans if s[2] > 0.0), default=0.0)
        doc = {
            "meta": meta,
            "stats": {k: {"calls": c, "s": t, "self_s": s} for k, (c, t, s) in sorted(self.stats.items())},
            "by_parent": [
                {"parent": p, "name": n, "calls": c, "s": t} for (p, n), (c, t) in self.by_parent.items()
            ],
            "counters": self.counters,
            "spans_dropped": self.dropped_spans,
            "spans": [[n, round(a - origin, 9), round(b - origin, 9), p] for n, a, b, p in self.spans],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
