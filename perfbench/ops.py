"""One op per instance, with an untimed correctness gate.

Every op has the same protocol:

- ``prepare()`` runs untimed before the op;
- ``run()`` is the timed call into acdkit's public entry point;
- ``failure(result)`` names a failure that ``run`` returned instead of
  raising (a CLI exit code 2 or 3), or gives None;
- ``output(result)`` is the op's output as text, compared byte for byte
  across passes and between the traced and untraced runs;
- ``check(result)`` returns ``(problems, decided)``: the wrong outputs it
  found, and False when a check had to stop at the loop cap.

The gates use code paths independent of the one under test: loop
enumeration instead of ``alternating_children`` for the ACD, the
certificate check run again (plus known winners) for parity games, and the
library's own answer for each CLI invocation.
"""

from __future__ import annotations

import json
import os

from workloads import CLI_SUBCOMMANDS, build, document, dumps

# Loop enumeration is exponential in the SCC size: one 20-edge SCC of an
# acd-sparse transform takes 49 s to enumerate, seven times the workload's
# whole pass.  The gate decides acceptance preservation for SCCs of at most
# this many edges and counts the rest as undecided.
GATE_LOOP_CAP = 16


def _transform_text(result):
    return dumps({
        "vertices": list(result.system.vertices),
        "edges": [[e.id, e.source, e.target] for e in result.system.edges],
        "initial": list(result.system.initial),
        "priorities": result.condition.priorities,
        "vertex_map": result.vertex_map,
        "edge_map": result.edge_map,
    })


def _morphism_problems(ak, m):
    """Local bijectivity, and acceptance preservation by loop enumeration
    where the SCCs are within the loop cap."""
    problems = []
    if not ak.check_structural(m)[0]:
        problems.append("projection is not a morphism")
    if not ak.check_local(m)["bijective"]:
        problems.append("projection is not locally bijective")
    try:
        if not ak.check_acceptance_preserving(m, loop_cap=GATE_LOOP_CAP):
            problems.append("projection does not preserve acceptance")
    except ak.CapExceeded:
        return problems, False
    return problems, True


class Op:
    """An op on one instance built from its spec."""

    def __init__(self, ak, spec):
        self.ak = ak
        self.size = spec["size"]
        self.ts, self.cond = build(ak, spec)

    def prepare(self):
        pass

    def failure(self, result):
        return None


class AcdOp(Op):
    """``acd_transform(ts, cond)`` on one Muller system."""

    def run(self):
        return self.ak.acd_transform(self.ts, self.cond)

    def output(self, result):
        return _transform_text(result)

    def check(self, result):
        m = self.ak.induced_morphism(result, self.ts, self.cond)
        return _morphism_problems(self.ak, m)


class ParityOp(Op):
    """``solve_parity_game(Game(ts, cond))``; building the Game validates
    the input."""

    def run(self):
        return self.ak.solve_parity_game(self.ak.Game(self.ts, self.cond))

    def output(self, result):
        return dumps({"regions": result.regions,
                      "strategies": result.strategies})

    def check(self, result):
        game = self.ak.Game(self.ts, self.cond)
        problems = list(self.ak.verify_parity_solution(game, result))
        if self.size.startswith("path/") and \
                set(result.regions.values()) != {"Eve"}:
            problems.append("Eve must win the whole one-player path")
        return problems, True


class CliGame:
    """One Muller game written as a document, with the library's answer
    for each subcommand computed lazily (untimed) for the gate."""

    def __init__(self, ak, spec, workdir, index):
        self.ak = ak
        self.ts, self.cond = build(ak, spec)
        self.path = os.path.join(workdir, "g%d.json" % index)
        self.transform_path = os.path.join(workdir, "g%d.t.json" % index)
        with open(self.path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(document(spec))
        self._expected = None

    def expected(self):
        """Subcommand -> (exit code, extra) from direct library calls."""
        if self._expected is None:
            ak = self.ak
            try:
                res = ak.acd_transform(self.ts, self.cond)
            except ak.CapExceeded:
                self._expected = {sub: (3, None) for sub in
                                  ("solve", "transform", "relabel", "stats",
                                   "shape")}
                self._expected["check-morphism"] = (2, None)
                return self._expected
            game = ak.Game(self.ts, self.cond)
            winner = ak.solve_muller_game(game).winner(game.initial)
            m = ak.induced_morphism(res, self.ts, self.cond)
            try:
                ok = ak.check_structural(m)[0] and \
                    ak.check_acceptance_preserving(m)
                morph = 0 if ok else 1
            except ak.CapExceeded:
                morph = 3
            parity = ak.classify_acd(res.acd).parity_acd
            self._expected = {"solve": (0, winner), "transform": (0, None),
                              "check-morphism": (morph, None),
                              "relabel": (0 if parity else 1, None),
                              "stats": (0, None), "shape": (0, None)}
        return self._expected


class CliOp:
    """One in-process ``acdkit.cli.main(argv)`` call writing to a file."""

    def __init__(self, ak, game, sub, workdir, index):
        self.ak = ak
        self.game = game
        self.sub = sub
        self.size = sub
        if sub == "transform":
            self.out = game.transform_path
        else:
            self.out = os.path.join(workdir, "g%d.%s.out" % (index, sub))
        args = {"solve": [game.path],
                "transform": [game.path],
                "check-morphism": [game.transform_path, "--against",
                                   game.path],
                "relabel": [game.path, "--target", "parity"],
                "stats": [game.path],
                "shape": [game.path]}[sub]
        self.argv = [sub] + args + ["-o", self.out]

    def prepare(self):
        if os.path.exists(self.out):
            os.remove(self.out)

    def run(self):
        return self.ak.cli.main(list(self.argv))

    def failure(self, result):
        return "exit%d" % result if result in (2, 3) else None

    def _text(self):
        if not os.path.exists(self.out):
            return None
        with open(self.out, encoding="utf-8") as fh:
            return fh.read()

    def output(self, result):
        return "exit=%d\n%s" % (result, self._text() or "")

    def check(self, result):
        code, extra = self.game.expected()[self.sub]
        if result != code:
            return ["%s exited %d, library says %d"
                    % (self.sub, result, code)], True
        if result not in (0, 1):
            return [], True
        text = self._text()
        if text is None:
            return ([] if self.sub == "relabel" and result == 1
                    else ["%s wrote no output" % self.sub]), True
        try:
            obj = json.loads(text)
            if self.sub in ("transform", "relabel"):
                self.ak.docfmt.parse(text)
        except (ValueError, self.ak.InputError) as e:
            return ["%s output does not parse: %s" % (self.sub, e)], True
        if self.sub == "solve" and obj.get("winner") != extra:
            return ["solve names the wrong winner"], True
        if self.sub == "check-morphism" and result == 0 and not (
                obj["structural"] and obj["local"]["bijective"]
                and obj["acceptance_preserving"]):
            return ["check-morphism passed a non-bijective or "
                    "non-preserving transform"], True
        if self.sub == "check-morphism" and result == 1:
            return ["the transform fails its own morphism check"], True
        return [], True


def make_ops(ak, workload, specs, workdir):
    """The run's ops, in order, for already-seeded specs."""
    if workload in ("acd-sparse", "acd-colours"):
        return [AcdOp(ak, s) for s in specs]
    if workload == "parity-games":
        return [ParityOp(ak, s) for s in specs]
    ops = []
    for i, spec in enumerate(specs):
        game = CliGame(ak, spec, workdir, i)
        ops.extend(CliOp(ak, game, sub, workdir, i)
                   for sub in CLI_SUBCOMMANDS)
    return ops
