"""The three benchmark workloads.

Each workload builds its inputs from the seed in ``__init__`` (this is the
set-up that ``setup_s`` times) and runs one timed pass per ``run_pass()``
call. A pass returns one record per verdict item; the harness compares
the records of every pass with those of the first, so a verdict that changes
between passes, or between a traced and an untraced pass, counts as failed.

The workloads call only public entry points of subsym, looked up on the
module at call time so that the tracer's wrappers apply.
"""

from __future__ import annotations

import contextlib
import glob
import io
import os
import random
import re
import shutil
import tempfile
import time
from dataclasses import dataclass, field


@dataclass
class PassResult:
    elapsed_s: float  # wall time of the pass
    first_verdict_s: float  # wall time from its start to its first verdict
    started: float  # perf_counter at its start
    records: list = field(default_factory=list)
    failed: int = 0  # items that raised or gave an unexpected verdict
    problems: list = field(default_factory=list)
    scratch: str = ""  # what finish() checks and then removes
    # set by the harness: verdict items, and the pass and first-verdict
    # times at reference speed
    items: int = 0
    pass_s: float = 0.0
    first_s: float = 0.0


class Workload:
    name = ""
    default_seed = 0

    def run_pass(self) -> PassResult:
        raise NotImplementedError

    def finish(self, result: PassResult) -> None:
        """Checks made after the timed pass, outside any trace."""

    def close(self) -> None:
        pass


class Corpus(Workload):
    """``run_corpus(CorpusConfig(seed=seed))``, the default verify sweep.

    Many small, all-distinct instances: per-call overhead in groups,
    symmetry and theorems dominates, and no (graph, group) pair repeats.
    One item is one check outcome. ``run_corpus`` hands back every outcome
    at once, so the first verdict is available when the pass ends.
    """

    name = "corpus"
    default_seed = 1729

    def __init__(self, root: str, seed: int):
        from subsym import theorems

        self.theorems = theorems
        self.config = theorems.CorpusConfig(seed=seed)

    def run_pass(self) -> PassResult:
        t0 = time.perf_counter()
        outcomes = self.theorems.run_corpus(self.config)
        elapsed = time.perf_counter() - t0
        result = PassResult(elapsed_s=elapsed, first_verdict_s=elapsed, started=t0)
        for oc in outcomes:
            rec = oc.to_json_dict()
            rec["details"].pop("elapsed_s", None)
            result.records.append(rec)
            if oc.status != self.theorems.CONFIRMED:
                result.failed += 1
        return result


class _LineClock(io.TextIOBase):
    """A stdout stand-in that keeps the text and the time of the first
    verdict line (``s=...``)."""

    def __init__(self):
        self.parts: list[str] = []
        self.first_verdict = None

    def write(self, text: str) -> int:
        if self.first_verdict is None and text.startswith("s="):
            self.first_verdict = time.perf_counter()
        self.parts.append(text)
        return len(text)


class Hosi(Workload):
    """The README's ``analyze`` flow on the subdivided Hoffman-Singleton
    graph (225 vertices), driven through ``subsym.cli.main``.

    Two calls per pass, each ``--property local-distance --s 1..6``: first
    ``--group aut`` with a cold automorphism cache, then the fixture
    generators of Aut(HoSi) through the induced action. One item is one
    ``s=`` verdict. Each pass runs in a fresh directory, so the aut cache
    file of one pass never reaches the next. The seed is recorded but
    unused: the instance is fixed.
    """

    name = "hosi"
    default_seed = 0
    S_RANGE = "1..6"
    AUT_ORDER = 252000

    def __init__(self, root: str, seed: int):
        from subsym import cli

        self.cli = cli
        self.generators = os.path.join(root, "fixtures", "hoffman_singleton_aut.gens")
        if not os.path.isfile(self.generators):
            raise FileNotFoundError(self.generators)
        work_root = os.path.join(root, ".perfbench", "work")
        os.makedirs(work_root, exist_ok=True)
        self.work = tempfile.mkdtemp(prefix="hosi-", dir=work_root)
        base = os.path.join(self.work, "hosi.g")
        self.graph = os.path.join(self.work, "shosi.g")
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["build", "hoffman-singleton", "--out", base])
            rc = rc or cli.main(["transform", "subdivide", "--in", base, "--out", self.graph])
        if rc != 0:
            raise RuntimeError("could not build the subdivided Hoffman-Singleton graph")

    def _analyze(self, graph: str, group: str, out: _LineClock) -> int:
        with contextlib.redirect_stdout(out):
            return self.cli.main(["analyze", "--graph", graph, "--group", group,
                                  "--property", "local-distance", "--s", self.S_RANGE])

    def run_pass(self) -> PassResult:
        pass_dir = tempfile.mkdtemp(prefix="pass-", dir=self.work)
        graph = os.path.join(pass_dir, "shosi.g")
        shutil.copyfile(self.graph, graph)
        aut_out, gens_out = _LineClock(), _LineClock()
        t0 = time.perf_counter()
        rc_aut = self._analyze(graph, "aut", aut_out)
        rc_gens = self._analyze(graph, self.generators, gens_out)
        elapsed = time.perf_counter() - t0
        first = (aut_out.first_verdict or t0 + elapsed) - t0
        result = PassResult(elapsed_s=elapsed, first_verdict_s=first, started=t0, scratch=pass_dir)
        lo, hi = (int(x) for x in self.S_RANGE.split(".."))
        for label, rc, out in (("aut", rc_aut, aut_out), ("gens", rc_gens, gens_out)):
            verdicts = dict(re.findall(r"^s=(\d+): (\w+)$", "".join(out.parts), re.M))
            if rc != 0:
                result.problems.append(f"analyze --group {label} exited {rc}")
            for s in range(lo, hi + 1):
                verdict = verdicts.get(str(s), "missing")
                result.records.append(f"{label} s={s}: {verdict}")
                if verdict != "true":
                    result.failed += 1
        return result

    def finish(self, result: PassResult) -> None:
        """Check the order of the automorphism group the ``--group aut``
        call found: read from the generator file it cached next to the
        graph, or computed afresh when no cache file is there."""
        from subsym import autgrp, formats

        try:
            cached = sorted(glob.glob(os.path.join(result.scratch, "*.gens")))
            if cached:
                order = formats.read_generators(cached[0]).order()
            else:
                graph = formats.read_graph(os.path.join(result.scratch, "shosi.g"))
                order = autgrp.automorphism_group(graph).order()
            if order != self.AUT_ORDER:
                result.problems.append(f"Aut(S(HoSi)) order {order}, expected {self.AUT_ORDER}")
        finally:
            shutil.rmtree(result.scratch, ignore_errors=True)

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


class Structural(Workload):
    """The acceptance suite's structural instances: the named families up
    to 20 vertices plus 200 seeded random connected graphs on at most 12.

    A pass has two phases, like the two acceptance tests it mirrors, and
    each phase builds its own Graph objects from edge lists made at set-up,
    so no cache on a Graph carries over between passes or phases:

    1. ``check_distance_formula`` on every base graph. Its end is the first
       verdict (the distance-formula corpus holds or not).
    2. ``check_reconstruction`` and girth doubling under subdivision on the
       named graphs with parameter up to 12 and the random graphs;
       |Aut(S(g))| = |Aut(g)| on those with at most 12 vertices; and
       |Aut(S(C_n))| = 4n for every named or random cycle.

    One item is one base graph with all its checks.
    """

    name = "structural"
    default_seed = 20250809
    NAMED_MAX = 20
    SMALL_MAX = 12
    RANDOM_COUNT = 200

    def __init__(self, root: str, seed: int):
        from subsym import autgrp, graphs, theorems, transforms

        self.graphs, self.theorems, self.transforms, self.autgrp = graphs, theorems, transforms, autgrp
        bases = []  # (label, graph, family parameter)
        for n in range(2, self.NAMED_MAX + 1):
            bases.append((f"K_{n}", graphs.make_complete(n), n))
            bases.append((f"K_{n},{n}", graphs.make_complete_bipartite(n, n), n))
            if n >= 3:
                bases.append((f"C_{n}", graphs.make_cycle(n), n))
        bases.append(("Petersen", graphs.make_petersen(), 10))
        rng = random.Random(seed)
        for i in range(self.RANDOM_COUNT):
            g = graphs.random_connected_graph(rng, rng.randint(3, self.SMALL_MAX))
            bases.append((f"random#{i}", g, g.n))
        # (label, n, edges, whether the reconstruction and girth checks apply)
        self.inputs = [(label, g.n, tuple(g.edge_list), param <= self.SMALL_MAX)
                       for label, g, param in bases]
        self.everything = range(len(self.inputs))
        self.phase2 = [i for i, (label, n, edges, small) in enumerate(self.inputs)
                       if small or _is_cycle(n, edges)]

    def _distance_formula(self, g, small: bool):
        oc = self.theorems.check_distance_formula(g)
        d = oc.details
        ok = oc.status == self.theorems.CONFIRMED and d.get("mismatches") == 0 and d.get("delta") in (0, 1, 2)
        return [oc.status, d.get("mismatches"), d.get("delta")], ok

    def _invariants(self, g, small: bool):
        theorems, transforms, autgrp, girth = self.theorems, self.transforms, self.autgrp, self.graphs.girth
        rec, ok = [], True
        sub = transforms.subdivide(g).graph
        if small:
            oc = theorems.check_reconstruction(g)
            rec += [oc.status, oc.details.get("round_trip")]
            ok &= oc.status == theorems.CONFIRMED and oc.details.get("round_trip") is True
            base_girth = girth(g)
            if base_girth is not None:
                sub_girth = girth(sub)
                rec += [base_girth, sub_girth]
                ok &= sub_girth == 2 * base_girth
        is_cycle = _is_cycle(g.n, g.edge_list)
        if is_cycle or g.n <= self.SMALL_MAX:
            sub_order = autgrp.automorphism_group(sub).order()
            expected = 4 * g.n if is_cycle else autgrp.automorphism_group(g).order()
            rec += [sub_order, expected]
            ok &= sub_order == expected
        return rec, ok

    def _phase(self, check, indices, records, ok):
        Graph = self.graphs.Graph
        for i in indices:
            _, n, edges, small = self.inputs[i]
            try:
                rec, good = check(Graph(n, edges), small)
            except Exception as exc:  # an error fails this item only
                rec, good = [f"{type(exc).__name__}: {exc}"], False
            records[i].extend(rec)
            ok[i] &= good

    def run_pass(self) -> PassResult:
        records = [[inp[0]] for inp in self.inputs]
        ok = [True] * len(self.inputs)
        t0 = time.perf_counter()
        self._phase(self._distance_formula, self.everything, records, ok)
        first = time.perf_counter() - t0
        self._phase(self._invariants, self.phase2, records, ok)
        elapsed = time.perf_counter() - t0
        return PassResult(elapsed_s=elapsed, first_verdict_s=first, started=t0, records=records,
                          failed=ok.count(False))


def _is_cycle(n: int, edges) -> bool:
    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    return n >= 3 and len(edges) == n and all(d == 2 for d in degree)


WORKLOADS = {w.name: w for w in (Corpus, Hosi, Structural)}
