"""Acceptance suite: one test per criterion, each printing a pass/fail line
and enforcing its wall-clock budget (run with -s to see the lines live).

One documented counterexample is asserted explicitly: the published small-s
classification table gives s_max = 3 for the subdivided K_5 with A_5, but the
sphere conditions hold through s = 4 (see check_known_exception, and the
brute force over all 60 elements in test_cross_validation.py).
test_classification_rows therefore requires that row to be REFUTED with
exactly that table value and those verdicts, and every other row CONFIRMED.
"""

import math
import random
import time

from subsym.autgrp import automorphism_group
from subsym.graphs import (
    distance_sphere,
    girth,
    make_complete,
    make_complete_bipartite,
    make_cycle,
    make_hoffman_singleton,
    make_petersen,
    random_connected_graph,
)
from subsym.groups import (
    alternating_group,
    derived_subgroup,
    dihedral_group,
    induced_subdivision_action,
    pgammal_2_8,
    pgl_2_8,
    symmetric_group,
    wreath_s2,
)
from subsym.symmetry import is_locally_s_distance_transitive
from subsym.theorems import (
    CONFIRMED,
    REFUTED,
    CorpusConfig,
    check_classification_row,
    check_distance_formula,
    check_known_exception,
    check_large_s_cycles,
    check_reconstruction,
    run_corpus,
)
from subsym.transforms import subdivide

from _oracles import brute_closure

ACCEPTANCE_SEED = 20250809


def _named_families_to(n_max):
    graphs = [make_complete(n) for n in range(2, n_max + 1)]
    graphs += [make_complete_bipartite(n, n) for n in range(2, n_max + 1)]
    graphs += [make_cycle(n) for n in range(3, n_max + 1)]
    graphs.append(make_petersen())
    return graphs


def _random_corpus(count, n_max, seed=ACCEPTANCE_SEED):
    rng = random.Random(seed)
    return [random_connected_graph(rng, rng.randint(3, n_max)) for _ in range(count)]


def _report(name, ok, elapsed, extra=""):
    status = "PASS" if ok else "FAIL"
    print(f"{status} {name} ({elapsed:.1f}s){': ' + extra if extra else ''}")


class TestAcceptance:
    def test_distance_formula_corpus(self):
        # closed-form subdivision distances equal BFS on every vertex pair of
        # every corpus graph; zero tolerance; under 10 seconds
        t0 = time.monotonic()
        graphs = _named_families_to(20) + _random_corpus(200, 12)
        bad = []
        pairs = 0
        for g in graphs:
            oc = check_distance_formula(g)
            pairs += oc.details.get("pairs", 0)
            if oc.status != CONFIRMED or oc.details["mismatches"] != 0:
                bad.append(oc)
        elapsed = time.monotonic() - t0
        ok = not bad and elapsed < 10.0
        _report("distance-formula corpus", ok, elapsed, f"{len(graphs)} graphs, {pairs} pairs")
        assert not bad, bad[:3]
        assert elapsed < 10.0, f"budget exceeded: {elapsed:.1f}s"

    def test_classification_rows(self):
        # every listed row/group pair matches the published table; under 60 s.
        # The (K_5, A_5) pair is the documented counterexample to the table:
        # it must be refuted with the table's s_max = 3 against verdicts true
        # through s = 4, and check_known_exception must confirm it.
        t0 = time.monotonic()
        instances = [("K2", None, None), ("K3", None, None)]
        for n in range(4, 10):
            instances.append(("Kn", symmetric_group(n), n))
            instances.append(("Kn", alternating_group(n), n))
        instances.append(("Kn", pgammal_2_8(), 9))
        instances.append(("Kn", pgl_2_8(), 9))
        for n in (2, 3, 4):
            instances.append(("Knn", wreath_s2(n), n))
        instances.append(("C5", None, None))
        instances.append(("P", None, None))
        failures = []
        k5_a5 = None
        for row, G, n in instances:
            oc = check_classification_row(row, G, n)
            if row == "Kn" and n == 5 and G.order() == 60:
                k5_a5 = oc
            elif oc.status != CONFIRMED:
                failures.append((oc.instance, oc.details))
        exception = check_known_exception()
        elapsed = time.monotonic() - t0
        counterexample_pinned = (
            k5_a5.status == REFUTED
            and k5_a5.details["expected_s_max"] == 3
            and k5_a5.details["verdicts"] == {1: True, 2: True, 3: True, 4: True}
            and exception.status == CONFIRMED
        )
        ok = not failures and counterexample_pinned and elapsed < 60.0
        _report("classification rows", ok, elapsed, f"{len(instances)} instances")
        assert elapsed < 60.0, f"budget exceeded: {elapsed:.1f}s"
        assert not failures, f"row/group pairs disagreeing with the published table: {failures}"
        assert counterexample_pinned, (k5_a5.status, k5_a5.details, exception)

    def test_hoffman_singleton_heavy(self):
        # full automorphism search, both admissible groups locally distance
        # transitive to s = 6, and the two sphere counts; 10 minute budget
        t0 = time.monotonic()
        h = make_hoffman_singleton()
        aut = automorphism_group(h)
        assert aut.order() == 252000
        derived = derived_subgroup(aut)
        assert derived.order() == 126000
        sh = subdivide(h)
        assert len(distance_sphere(sh.graph, 0, 1)) == 7
        assert len(distance_sphere(sh.graph, 50, 4)) == 72
        for G in (aut, derived):
            Gs = induced_subdivision_action(G, sh)
            for s in (4, 5, 6):
                assert is_locally_s_distance_transitive(sh.graph, Gs, s).verdict, (G.order(), s)
        elapsed = time.monotonic() - t0
        _report("Hoffman-Singleton heavy", elapsed < 600.0, elapsed)
        assert elapsed < 600.0, f"budget exceeded: {elapsed:.1f}s"

    def test_local_arc_equivalence_sweep(self):
        # subdivision local s-arc transitivity vs base ceil((s+1)/2)-arc
        # transitivity across the random corpus with sampled subgroups,
        # s = 1..5; 100% agreement; under 5 minutes
        t0 = time.monotonic()
        cfg = CorpusConfig(seed=ACCEPTANCE_SEED, sections=("random",), random_graphs=24,
                           random_n_min=3, random_n_max=7, subgroup_samples=8, s_max=5)
        outcomes = [oc for oc in run_corpus(cfg) if oc.name == "local-arc-equivalence"]
        refuted = [oc for oc in outcomes if oc.status == REFUTED]
        elapsed = time.monotonic() - t0
        ok = bool(outcomes) and not refuted and elapsed < 300.0
        _report("local arc equivalence sweep", ok, elapsed, f"{len(outcomes)} instances")
        assert outcomes and not refuted, refuted[:3]
        assert elapsed < 300.0, f"budget exceeded: {elapsed:.1f}s"

    def test_local_distance_equivalence_sweep(self):
        # same corpus, distance version, restricted to s <= 2*diam - 1
        t0 = time.monotonic()
        cfg = CorpusConfig(seed=ACCEPTANCE_SEED, sections=("random",), random_graphs=24,
                           random_n_min=3, random_n_max=7, subgroup_samples=8, s_max=5)
        outcomes = [oc for oc in run_corpus(cfg) if oc.name == "local-distance-equivalence"]
        refuted = [oc for oc in outcomes if oc.status == REFUTED]
        elapsed = time.monotonic() - t0
        ok = bool(outcomes) and not refuted and elapsed < 300.0
        _report("local distance equivalence sweep", ok, elapsed, f"{len(outcomes)} instances")
        assert outcomes and not refuted, refuted[:3]
        assert elapsed < 300.0, f"budget exceeded: {elapsed:.1f}s"

    def test_structural_invariants(self):
        # reconstruction round-trips, girth doubling, and automorphism orders
        # of subdivisions across the corpus
        t0 = time.monotonic()
        named_small = _named_families_to(12)
        randoms = _random_corpus(200, 12)
        for g in named_small + randoms:
            oc = check_reconstruction(g)
            assert oc.status == CONFIRMED, oc
            base_girth = girth(g)
            if base_girth is not None:
                assert girth(subdivide(g).graph) == 2 * base_girth
        seen_aut = 0
        for g in named_small + randoms:
            if g.m == g.n and all(g.degree(v) == 2 for v in range(g.n)):
                continue  # cycles handled below
            if g.n > 12:
                continue
            expected = automorphism_group(g).order()
            assert automorphism_group(subdivide(g).graph).order() == expected
            seen_aut += 1
        for n in range(3, 21):
            assert automorphism_group(subdivide(make_cycle(n)).graph).order() == 4 * n
        elapsed = time.monotonic() - t0
        _report("structural invariants", True, elapsed,
                f"{len(named_small) + len(randoms)} graphs, {seen_aut} non-cycle aut checks")

    def test_large_s_cycle_classification(self):
        # positive direction at (16,16), (17,16), (17,17), (18,18), (19,18),
        # (19,19), failing under every proper subgroup class; under 30 seconds
        t0 = time.monotonic()
        expected_pairs = {16: {16}, 17: {16, 17}, 18: {18}, 19: {18, 19}}
        for n, s_set in expected_pairs.items():
            oc = check_large_s_cycles(n)
            assert oc.status == CONFIRMED, oc
            assert set(oc.details["positives"]) == s_set
            assert all(oc.details["positives"].values())
            assert oc.details["negatives"]
            for verdicts in oc.details["negatives"].values():
                assert not any(verdicts.values())
        elapsed = time.monotonic() - t0
        _report("large-s cycle classification", elapsed < 30.0, elapsed)
        assert elapsed < 30.0, f"budget exceeded: {elapsed:.1f}s"

    def test_group_engine_oracle(self):
        # stabilizer-chain orders equal brute-force closure sizes exactly
        t0 = time.monotonic()
        cases = []
        for n in range(3, 13):
            cases.append((dihedral_group(n), 2 * n))
        for n in range(2, 7):
            cases.append((symmetric_group(n), math.factorial(n)))
        cases.append((pgammal_2_8(), 1512))
        cases.append((automorphism_group(make_petersen()), 120))
        for G, expected in cases:
            closure = len(brute_closure(G.generators, G.degree))
            assert G.order() == closure == expected
        elapsed = time.monotonic() - t0
        _report("group engine oracle", True, elapsed, f"{len(cases)} groups")
