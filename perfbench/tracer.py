"""Spans around the calls into each nkshoot module, installed from outside the
package and removed again afterwards.

A function is wrapped where it is looked up: every ``nkshoot`` module that
binds the same function object by name gets the wrapper (``shoot`` and
``cli`` import ``integrate``, ``family_series``, ``handoff`` and ``rhs_vec``
by name; ``integrate`` passes its own binding of ``rhs_vec`` to scipy).
Methods are patched on their class. ``Tracer.restore`` puts every original
back.

Each span records calls, total time and self time (its duration minus the
part covered by child spans). Self times of all spans telescope to the time
spent inside top-level spans, which ``root_s`` accumulates.
"""
from __future__ import annotations

import inspect
import statistics
import sys
from collections import Counter
from time import perf_counter


class SpanStat:
    __slots__ = ("calls", "total", "self_time", "durations")

    def __init__(self, keep_durations: bool):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.durations = [] if keep_durations else None

    def as_dict(self) -> dict:
        out = {"calls": self.calls, "total_s": self.total,
               "self_s": self.self_time}
        if self.durations is not None:
            out["ms_p50"] = (statistics.median(self.durations) * 1e3
                             if self.durations else 0.0)
        return out


# (span name, module, attribute, keep per-call durations). The attribute is
# looked up on the module; a class-qualified attribute is patched on the class.
LAYER_SPANS = (
    ("series.family_series", "nkshoot.series", "family_series", True),
    ("series.handoff", "nkshoot.series", "handoff", True),
    ("integrate.integrate", "nkshoot.integrate", "integrate", True),
    ("state.rhs_vec", "nkshoot.state", "rhs_vec", False),
    ("state.constraints", "nkshoot.state", "constraints", False),
    ("geometry.max_orbit_record", "nkshoot.geometry",
     "MaxOrbitRecord.from_state", False),
    ("shoot.solve_family", "nkshoot.shoot", "solve_family", True),
    ("shoot.probe", "nkshoot.shoot", "_confirm_unique_maximum", False),
    ("shoot.volume_quad", "nkshoot.shoot", "_ode_volume_integral", False),
    ("shoot.trace_curve", "nkshoot.shoot", "trace_curve", False),
    ("shoot.refine_matching", "nkshoot.shoot", "refine_matching", False),
    ("shoot.find_doubling", "nkshoot.shoot", "find_doubling", False),
    ("shoot.find_matching", "nkshoot.shoot", "find_matching", False),
    ("exact.eval", "nkshoot.exact", "NamedSolution.eval", False),
    ("exact.eval_calabi_yau", "nkshoot.exact", "eval_calabi_yau", False),
    ("exact.legendre_xi", "nkshoot.exact", "legendre_xi", False),
    ("emit.write_json", "nkshoot.emit", "write_json", False),
    ("cli.run_verify", "nkshoot.cli", "run_verify", False),
    ("cli.sine_cone_row", "nkshoot.cli", "_sine_cone_row", False),
)

ROOT_SOLVES = ("shoot.find_doubling", "shoot.find_matching")


class Tracer:
    """Installs the layer spans on construction; call ``restore`` (or use it
    as a context manager) to remove them."""

    def __init__(self):
        self.stats: dict[str, SpanStat] = {}
        self.counters: Counter = Counter()
        self.active: Counter = Counter()
        self.solve_keys: set = set()
        self._child = [0.0]            # child time of each open span
        self._patches: list[tuple[object, str, object]] = []
        try:
            for name, module, attr, keep in LAYER_SPANS:
                self._install(name, sys.modules[module], attr, keep)
        except BaseException:
            self.restore()
            raise

    @property
    def root_s(self) -> float:
        """Time spent inside top-level spans since construction."""
        return self._child[0]

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- installation --------------------------------------------------------

    def _install(self, name, module, attr, keep):
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__, keep))
            else:
                wrapped = self._wrap(name, raw, keep)
            self._patches.append((cls, meth, raw))
            setattr(cls, meth, wrapped)
            return
        original = getattr(module, attr)
        wrapper = self._wrap(name, original, keep)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "nkshoot"
                                   or mod_name.startswith("nkshoot.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def _wrap(self, name, fn, keep):
        stat = self.stats.setdefault(name, SpanStat(keep))
        child = self._child
        active = self.active
        before = self._before_hook(name, fn)
        after = self._after_hook(name)

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            active[name] += 1
            child.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                inner = child.pop()
                child[-1] += dt
                active[name] -= 1
                stat.calls += 1
                stat.total += dt
                stat.self_time += dt - inner
                if stat.durations is not None:
                    stat.durations.append(dt)
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counters taken at the span boundaries --------------------------------

    def _before_hook(self, name, fn):
        if name != "shoot.solve_family":
            return None
        sig = inspect.signature(fn)
        counters, active, keys = self.counters, self.active, self.solve_keys

        def before(args, kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            keys.add(tuple(bound.arguments.values()))
            if any(active[r] for r in ROOT_SOLVES):
                counters["root_family_solves"] += 1
            if active["shoot.refine_matching"] and \
                    bound.arguments["family"] == "alpha":
                # each objective evaluation solves one alpha member
                counters["objective_evals"] += 1
        return before

    def _after_hook(self, name):
        if name != "integrate.integrate":
            return None
        counters = self.counters

        def after(traj):
            counters["accepted_steps"] += len(traj.times) - 1
        return after

    # -- report ---------------------------------------------------------------

    def report(self) -> dict:
        return {"spans": {n: s.as_dict() for n, s in self.stats.items()},
                "counters": dict(self.counters),
                "distinct_solves": len(self.solve_keys),
                "root_s": self.root_s}
