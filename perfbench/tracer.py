"""Per-layer tracing from outside the program.

Every public function of every ``acdkit`` module is wrapped in each module
namespace that binds it (``acdkit.loops.loop_status_over`` and
``acdkit.core.loop_status_over`` get the same wrapper), so calls through
any import path are seen.  A wrapper records calls, inclusive time and
self time (its duration minus the time of nested wrapped calls), under the
name ``<defining module>.<function>``.  A few hooks turn results into
counts.  Wrappers only record while ``enabled`` is set, so the untimed
correctness gate is never traced.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("docfmt", "core", "loops", "zielonka", "acd", "relabel",
          "morphism", "games", "cli")


class Tracer:
    def __init__(self, ak):
        self.ak = ak
        self.enabled = False
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self._stack = []          # child time of each open wrapped call
        self._active = Counter()  # open calls per name
        self._patched = []        # (namespace, attribute, original)

    # -- hooks: (tracer, args, result, error, seconds) ------------------------

    def _alternating_children(self, args, result, error, dt):
        if result is not None:
            self.counts["loops.alternating_children.children"] += len(result)

    def _loop_status_over(self, args, result, error, dt):
        if self._active["loops.alternating_children"]:
            self.counts["loops.status_checks_in_children"] += 1

    def _build_acd(self, args, result, error, dt):
        if result is not None:
            self.counts["acd.tree_nodes"] += sum(len(t.nodes)
                                                 for t in result.trees)

    def _acd_transform(self, args, result, error, dt):
        if result is not None:
            self.counts["acd.transform_vertices"] += \
                len(result.system.vertices)

    def _check_acceptance_preserving(self, args, result, error, dt):
        if isinstance(error, self.ak.CapExceeded):
            self.counts["morphism.cap_exceeded"] += 1

    def _solve_parity_game(self, args, result, error, dt):
        if result is not None:
            ts = args[0].ts
            self.counts["games.board_nodes"] += len(ts.vertices) + \
                len(ts.edges)

    def _dumps(self, args, result, error, dt):
        if result is not None:
            self.counts["docfmt.bytes_out"] += len(result.encode("utf-8"))

    def _main(self, args, result, error, dt):
        self.counts["cli.main.%s.s" % args[0][0]] += dt

    HOOKS = {
        "loops.alternating_children": _alternating_children,
        "core.loop_status_over": _loop_status_over,
        "acd.build_acd": _build_acd,
        "acd.acd_transform": _acd_transform,
        "morphism.check_acceptance_preserving": _check_acceptance_preserving,
        "games.solve_parity_game": _solve_parity_game,
        "docfmt.dumps": _dumps,
        "cli.main": _main,
    }

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, name, fn):
        hook = self.HOOKS.get(name)
        stack, active = self._stack, self._active
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack.append(0.0)
            active[name] += 1
            result = error = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                error = e
                raise
            finally:
                dt = clock() - t0
                child = stack.pop()
                active[name] -= 1
                if stack:
                    stack[-1] += dt
                self.calls[name] += 1
                self.self_s[name] += dt - child
                if hook is not None:
                    hook(self, args, result, error, dt)
        return wrapper

    def install(self):
        """Wrap the public functions of every layer module, and rebind
        them in every acdkit namespace."""
        modules = [self.ak] + [sys.modules["acdkit." + m] for m in LAYERS]
        wrappers = {}
        for mod in modules:
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                home = fn.__module__.rpartition(".")[2]
                if not fn.__module__.startswith("acdkit.") or \
                        home not in LAYERS:
                    continue
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrap(
                        "%s.%s" % (home, fn.__name__), fn)
                self._patched.append((mod, attr, fn))
                setattr(mod, attr, wrappers[id(fn)])

    def uninstall(self):
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()
