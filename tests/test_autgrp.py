import hashlib
import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from subsym import autgrp
from subsym.autgrp import (
    BudgetExceededError,
    _MappingSearch,
    _Partition,
    _invariant_cells,
    _refine,
    _vertex_invariants,
    automorphism_group,
    find_isomorphism,
    is_isomorphic,
    subdivision_automorphism_group,
)
from subsym.graphs import (
    Graph,
    GraphError,
    make_complete,
    make_complete_bipartite,
    make_cycle,
    make_hoffman_singleton,
    make_petersen,
    random_connected_graph,
)
from subsym.groups import (
    PermGroup,
    StabilizerChain,
    equal_groups,
    stabilizer_edge,
    stabilizer_point,
)
from subsym.symmetry import transitivity_reports
from subsym.transforms import subdivide

from _oracles import (
    PairCell,
    bitmask_refine,
    brute_automorphisms,
    brute_closure,
    counted_vertex_invariants,
    counting_refine,
    individualize,
)
from test_graphs import random_graph_strategy


class TestAutomorphismGroup:
    def test_complete(self):
        for n in range(2, 8):
            assert automorphism_group(make_complete(n)).order() == math.factorial(n)

    def test_cycles(self):
        for n in range(3, 13):
            assert automorphism_group(make_cycle(n)).order() == 2 * n

    def test_petersen(self):
        assert automorphism_group(make_petersen()).order() == 120

    def test_complete_bipartite(self):
        assert automorphism_group(make_complete_bipartite(3, 3)).order() == 72
        assert automorphism_group(make_complete_bipartite(2, 3)).order() == 12

    def test_hoffman_singleton(self):
        assert automorphism_group(make_hoffman_singleton()).order() == 252000

    def test_generators_are_automorphisms(self):
        g = make_petersen()
        G = automorphism_group(g)
        from subsym.groups import is_graph_automorphism

        assert all(is_graph_automorphism(g, p) for p in G.generators)

    def test_asymmetric_graph(self):
        # smallest asymmetric graphs have 6 vertices; this is one of them
        g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (1, 3), (1, 4)])
        assert automorphism_group(g).order() == 1

    def test_subdivision_preserves_aut_order_for_non_cycles(self):
        for g in [make_petersen(), make_complete(5), make_complete_bipartite(2, 3)]:
            assert (
                automorphism_group(subdivide(g).graph).order()
                == automorphism_group(g).order()
            )

    def test_subdivided_cycle_doubles_aut(self):
        for n in (3, 5, 8):
            assert automorphism_group(subdivide(make_cycle(n)).graph).order() == 4 * n

    def test_empty_graph(self):
        # no special case: the general path gives the degree-0 trivial group
        G = automorphism_group(Graph(0, []))
        assert (G.degree, G.order(), G.generators) == (0, 1, ())
        assert G.chain().base() == []


@settings(max_examples=150, deadline=None)
@given(random_graph_strategy(max_n=7, min_n=0))
def test_automorphism_group_matches_brute_force(g):
    assert brute_closure(automorphism_group(g).generators, g.n) == brute_automorphisms(g)


@pytest.mark.parametrize("g, n", [
    (make_complete(8), 8),
    (subdivide(make_complete(12)).graph, 12),
], ids=["K_8", "S(K_12)"])
def test_symmetric_group_needs_one_search_per_level(g, n, monkeypatch):
    # S_n has a base of n - 1 points; pruning each level by the orbits of
    # the generators found below it leaves one search and one generator per
    # level, where searching each orbit point would take n(n - 1)/2
    searches = []
    depth = [0]
    dfs = _MappingSearch._dfs

    def counting(self, *args):
        if depth[0] == 0:
            searches.append(args)
        depth[0] += 1
        try:
            return dfs(self, *args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(_MappingSearch, "_dfs", counting)
    G = automorphism_group(g)
    assert G.order() == math.factorial(n)
    assert len(searches) == n - 1 and len(G.generators) == n - 1


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=10), st.integers(min_value=0, max_value=2**32),
       st.booleans())
def test_search_chain_is_verified_and_serves_stabilizers(n, seed, subdivided):
    # the chain the search returns, memoised on the group under (b_0,),
    # against chains built from scratch for the same generators: it is the
    # chain Schreier-Sims builds on the search's base
    g = random_connected_graph(random.Random(seed), n)
    if subdivided:
        g = subdivide(g).graph
    G = automorphism_group(g)
    [(prefix, base, chain)] = G._chains
    assert base == tuple(chain.base()) and prefix == base[:1]
    fresh = PermGroup(g.n, G.generators)
    assert _levels(chain) == _levels(StabilizerChain(fresh, base))
    assert chain.order() == G.order() == StabilizerChain(fresh).order()
    u = base[0] if base else 0
    v = base[1] if len(base) > 1 else (u + 1) % g.n
    assert equal_groups(stabilizer_point(G, u), stabilizer_point(fresh, u))
    assert equal_groups(stabilizer_edge(G, (u, v)), stabilizer_edge(fresh, (u, v)))
    assert len(G._chains) == 1  # both stabilizers were read off the search chain
    # chain() is the search chain, and random_element draws from the
    # precedence build: the draws a fresh group with the same generators makes
    assert G.chain() is chain
    rng, fresh_rng = random.Random(seed), random.Random(seed)
    assert [G.random_element(rng) for _ in range(3)] == [fresh.random_element(fresh_rng) for _ in range(3)]


def _levels(chain):
    return [(lvl.point, list(lvl.transversal.items()), list(lvl.transversal_inv.items()), lvl.gens)
            for lvl in chain.levels]


def _disjoint_edges(k):
    return Graph(2 * k, [(2 * i, 2 * i + 1) for i in range(k)])


def _refuse(*args, **kwargs):
    raise AssertionError("Schreier-Sims ran inside the automorphism search")


def _search_chain_is_schreier_sims(g, monkeypatch):
    """Aut(g) with Schreier-Sims disabled while the search runs; its chain
    must equal, level by level, the one Schreier-Sims builds afterwards from
    the same generators on the same base. Returns the group."""
    with monkeypatch.context() as m:
        m.setattr(StabilizerChain, "__init__", _refuse)
        m.setattr(StabilizerChain, "add_generator", _refuse)
        G = automorphism_group(g)
    [(_, base, chain)] = G._chains
    assert _levels(chain) == _levels(StabilizerChain(PermGroup(g.n, G.generators), base))
    return G


@pytest.mark.parametrize("g, order", [
    (make_complete_bipartite(1, 40), math.factorial(40)),
    (_disjoint_edges(20), 2**20 * math.factorial(20)),
    (make_complete(12), math.factorial(12)),
    (subdivide(make_complete(6)).graph, 720),
], ids=["K_1,40", "20K_2", "K_12", "S(K_6)"])
def test_long_bases_need_no_schreier_sims(g, order, monkeypatch):
    # bases of 39, 20, 11 and 5 points, where Schreier-Sims would sift
    # every (orbit point, generator) pair of every level
    G = _search_chain_is_schreier_sims(g, monkeypatch)
    assert G.order() == order


def test_fixed_point_stabilizer_is_the_group(monkeypatch):
    # every generator fixes the centre of K_1,60, so G_0 is G and needs no
    # chain; the leaves' stabilizer is read off the search chain, whose base
    # starts at a leaf, so the local 2-arc walk runs no Schreier-Sims
    g = make_complete_bipartite(1, 60)
    G = automorphism_group(g)
    assert stabilizer_point(G, 0) is G
    with monkeypatch.context() as m:
        m.setattr(StabilizerChain, "__init__", _refuse)
        reports = transitivity_reports(g, G, "s-arc", True, [1, 2])
    assert [r.to_json_dict() for r in reports] == [
        {"kind": "s-arc", "local": True, "s": 1, "verdict": True, "orbit_counts": {"1": 1}, "witness": None},
        {"kind": "s-arc", "local": True, "s": 2, "verdict": True, "orbit_counts": {"1": 1, "2": 1}, "witness": None},
    ]


def test_search_chain_sweep_matches_schreier_sims(monkeypatch):
    # 1,040 graphs, about half of them with a nontrivial group
    rng = random.Random(33)
    for n in range(2, 15):
        for _ in range(40):
            g = random_connected_graph(rng, n)
            _search_chain_is_schreier_sims(g, monkeypatch)
            _search_chain_is_schreier_sims(subdivide(g).graph, monkeypatch)


def test_size_cap_names_the_graph():
    with pytest.raises(BudgetExceededError, match=r"n <= 400; this graph has n = 402$"):
        automorphism_group(make_complete_bipartite(1, 401))


def test_analyze_aut_checks_each_generator_once(tmp_path, monkeypatch):
    # the search's edge check enters g as validated, so the transitivity
    # predicates do not check the generators against g again
    from subsym import autgrp, cli, groups
    from subsym.formats import write_graph

    checked = []
    check = groups.is_graph_automorphism

    def counting(g, p):
        checked.append(p)
        return check(g, p)

    monkeypatch.setattr(autgrp, "is_graph_automorphism", counting)
    monkeypatch.setattr(groups, "is_graph_automorphism", counting)
    path = str(tmp_path / "petersen.txt")
    write_graph(path, make_petersen())
    assert cli.main(["analyze", "--graph", path, "--group", "aut", "--property", "arc", "--s", "1..2"]) == 0
    assert len(checked) == len(automorphism_group(make_petersen()).generators) == 4


def _faulty_leaf(call, fault):
    """A ``_MappingSearch._verify_leaf`` whose ``call``-th mapping found
    (counting from 1) is damaged by ``fault``."""
    verify = _MappingSearch._verify_leaf
    found = [0]

    def leaf(self, s, t):
        mapping = verify(self, s, t)
        if mapping is not None:
            found[0] += 1
            if found[0] == call:
                fault(mapping)
        return mapping
    return leaf


def _swap(i, j):
    def fault(mapping):
        mapping[i], mapping[j] = mapping[j], mapping[i]
    return fault


@pytest.mark.parametrize("call, fault, error", [
    # two images of the second generator swapped: a non-automorphism that
    # fixes the base points above its level, so its level's orbit walk takes
    # it in and only the final check of every generator against g's edges
    # can catch it
    (2, _swap(-1, -2), "does not preserve the graph's edges"),
    # the images of 0 and 1 swapped in the third mapping: it moves b_0
    (3, _swap(0, 1), "moves a base point above it"),
], ids=["non-automorphism", "moves-a-base-point"])
@pytest.mark.parametrize("g", [make_hoffman_singleton(), make_petersen()], ids=["HoSi", "Petersen"])
def test_a_broken_search_chain_fails_verification(g, call, fault, error, monkeypatch):
    monkeypatch.setattr(_MappingSearch, "_verify_leaf", _faulty_leaf(call, fault))
    with pytest.raises(AssertionError, match=error):
        automorphism_group(g)


def _relabel(g, rng):
    images = list(range(g.n))
    rng.shuffle(images)
    return Graph(g.n, [(images[u], images[v]) for u, v in g.edge_list])


def _same_group(G, H):
    return (
        G.order() == H.order()
        and all(p in H for p in G.generators)
        and all(p in G for p in H.generators)
    )


class TestSubdivisionShortcut:
    @staticmethod
    def _structural_corpus():
        # the acceptance suite's structural corpus at the size it checks
        # Aut orders: named families and seeded random graphs on <= 12 vertices
        graphs = [make_complete(n) for n in range(2, 13)]
        graphs += [make_complete_bipartite(n, n) for n in range(2, 7)]
        graphs += [make_cycle(n) for n in range(3, 13)]
        graphs.append(make_petersen())
        rng = random.Random(20250809)
        graphs += [random_connected_graph(rng, rng.randint(3, 12)) for _ in range(200)]
        return graphs

    def test_matches_full_search_on_structural_corpus(self):
        rng = random.Random(8)
        applied = 0
        for base in self._structural_corpus():
            sub = subdivide(base).graph
            # S(base) is recognised exactly when base has an edge and, being
            # connected, is not a cycle: not every valency is 2
            recognisable = base.m > 0 and any(base.degree(v) != 2 for v in range(base.n))
            for g in (sub, _relabel(sub, rng)):
                lifted = subdivision_automorphism_group(g)
                assert (lifted is not None) == recognisable, base
                if lifted is None:
                    continue
                G, sigma = lifted
                assert is_isomorphic(sigma, base)
                assert _same_group(G, automorphism_group(g)), base
                applied += 1
        assert applied >= 400

    def test_hoffman_singleton(self):
        g = _relabel(subdivide(make_hoffman_singleton()).graph, random.Random(5))
        G, sigma = subdivision_automorphism_group(g)
        assert (sigma.n, sigma.m, G.order()) == (50, 175, 252000)
        assert _same_group(G, automorphism_group(g))

    @pytest.mark.parametrize("g", [
        subdivide(make_cycle(7)).graph,  # every valency is 2
        make_complete_bipartite(2, 4),  # four valency-2 vertices on one pair
        make_petersen(),  # no valency-2 vertex
        Graph(5, []),
        Graph(0, []),
    ], ids=["S(C_7)", "K_2,4", "Petersen", "edgeless", "empty"])
    def test_declines(self, g):
        assert subdivision_automorphism_group(g) is None

    def test_path_with_a_valency_two_vertex(self):
        # S(P_3): the path's middle vertex has valency 2 like the E-vertices
        g = _relabel(subdivide(Graph(3, [(0, 1), (1, 2)])).graph, random.Random(7))
        G, sigma = subdivision_automorphism_group(g)
        assert is_isomorphic(sigma, Graph(3, [(0, 1), (1, 2)]))
        assert _same_group(G, automorphism_group(g))


# the node-budget error on S(K_9) with a budget of 3 nodes
_BUDGET_ERROR = r"^mapping search on a graph with n = 45, m = 72 exceeded its budget of 3 nodes$"


class TestIsomorphism:
    def test_subdivided_triangle_is_six_cycle(self):
        assert is_isomorphic(subdivide(make_complete(3)).graph, make_cycle(6))

    def test_relabelled_random_graphs(self):
        rng = random.Random(31)
        for _ in range(15):
            g = random_connected_graph(rng, rng.randint(4, 9))
            images = list(range(g.n))
            rng.shuffle(images)
            relabelled = Graph(g.n, [(images[u], images[v]) for u, v in g.edge_list])
            mapping = find_isomorphism(g, relabelled)
            assert mapping is not None
            for u, v in g.edge_list:
                assert relabelled.has_edge(mapping[u], mapping[v])

    def test_non_isomorphic_pairs(self):
        assert not is_isomorphic(make_cycle(6), make_complete_bipartite(3, 3))
        assert not is_isomorphic(make_cycle(5), make_cycle(6))
        # same degree sequence, different graphs: C_6 vs two triangles is
        # disconnected, use C_6 vs prism minus an edge instead
        prism = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)])
        assert not is_isomorphic(prism, make_complete_bipartite(3, 3))

    def test_budget_error(self):
        g = subdivide(make_complete(9)).graph
        with pytest.raises(BudgetExceededError, match=_BUDGET_ERROR):
            automorphism_group(g, node_budget=3)

    @pytest.mark.parametrize("g1, g2", [
        (make_cycle(5), make_cycle(6)),
        (make_cycle(6), make_complete_bipartite(3, 3)),
    ], ids=["unequal n", "unequal m"])
    def test_unequal_sizes_build_no_search(self, g1, g2, monkeypatch):
        def refine(*args):
            raise AssertionError("a search was built")

        monkeypatch.setattr(autgrp, "_refine", refine)
        assert find_isomorphism(g1, g2) is None


@st.composite
def refine_cases(draw):
    """A graph on at most 12 vertices (disconnected ones included), a
    relabelling of it, a random graph with the same n and m, and up to two
    (cell, x, y) picks to individualise before refining."""
    n = draw(st.integers(min_value=1, max_value=12))
    all_edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.lists(st.booleans(), min_size=len(all_edges), max_size=len(all_edges)))
    edges = [e for e, keep in zip(all_edges, mask) if keep]
    images = draw(st.permutations(range(n)))
    relabelled = Graph(n, [(images[u], images[v]) for u, v in edges])
    same_size = Graph(n, draw(st.permutations(all_edges))[: len(edges)])
    index = st.integers(min_value=0, max_value=10**6)
    picks = draw(st.lists(st.tuples(index, index, index), max_size=2))
    return Graph(n, edges), (relabelled, same_size), picks


def _pair_cells(search):
    """The search's invariant partitions as lockstep pair cells, or the unit
    partition when the invariants differ."""
    by1, by2 = _invariant_cells(search.g1), _invariant_cells(search.g2)
    keys = sorted(by1)
    if keys != sorted(by2) or any(len(by1[key]) != len(by2[key]) for key in keys):
        n = search.g1.n
        return [PairCell(list(range(n)), list(range(n)))]
    return [PairCell(by1[key], by2[key]) for key in keys]


def _record_and_replay(search, s, t, queue):
    """Refine g1's partition s from queue recording its trace, then g2's
    partition t replaying it: whether the replay matched."""
    trace = []
    assert _refine(search.g1.adjacency, s, queue, trace, False)
    return _refine(search.g2.adjacency, t, queue, trace, True)


def _sorted_cells(s, t):
    return [(sorted(s.members(c)), sorted(t.members(c))) for c in s.ids()]


@settings(max_examples=300, deadline=None)
@given(refine_cases())
def test_refine_matches_full_scan_oracle(case):
    # record the s side, replay the t side against its trace, and compare
    # with the lockstep full scan: the replay fails exactly when the
    # lockstep refinement does, and otherwise both give the same cells in
    # the same order (a cell's vertex order means nothing)
    g1, partners, picks = case
    for g2 in partners:
        search = _MappingSearch(g1, g2)
        cells = _pair_cells(search)
        for i, x, y in picks:
            cell = cells[i % len(cells)]
            cells = individualize(cells, cell.s[x % len(cell.s)], cell.t[y % len(cell.t)])
        s = _Partition.from_cells([c.s[:] for c in cells])
        t = _Partition.from_cells([c.t[:] for c in cells])
        replayed = _record_and_replay(search, s, t, list(range(len(cells))))
        old = bitmask_refine(g1, g2, [PairCell(c.s[:], c.t[:]) for c in cells])
        assert replayed == (old is not None)
        if replayed:
            assert _sorted_cells(s, t) == [(sorted(c.s), sorted(c.t)) for c in old]


@settings(max_examples=300, deadline=None)
@given(refine_cases(), st.integers(min_value=0, max_value=10**6),
       st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=10**6))
def test_child_refine_queues_only_new_cells(case, i, x, y):
    # a search child: an equitable partition with one more x -> y split,
    # refined from its two new cells only, against the full scan
    g1, partners, picks = case
    for g2 in partners:
        search = _MappingSearch(g1, g2)
        cells = _pair_cells(search)
        for j, a, b in picks:
            cell = cells[j % len(cells)]
            cells = individualize(cells, cell.s[a % len(cell.s)], cell.t[b % len(cell.t)])
        s = _Partition.from_cells([c.s[:] for c in cells])
        t = _Partition.from_cells([c.t[:] for c in cells])
        if not _record_and_replay(search, s, t, list(range(len(cells)))):
            continue
        open_cells = [c for c in s.ids() if s.size[c] > 1]
        if not open_cells:
            continue
        at = open_cells[i % len(open_cells)]
        xs, ys = s.members(at), t.members(at)
        xv, yv = xs[x % len(xs)], ys[y % len(ys)]
        pairs = [PairCell(s.members(c), t.members(c)) for c in s.ids()]
        old = bitmask_refine(g1, g2, individualize(pairs, xv, yv))
        s_child, queue = s.child(at, xv)
        t_child, _ = t.child(at, yv)
        replayed = _record_and_replay(search, s_child, t_child, queue)
        assert replayed == (old is not None)
        if replayed:
            assert _sorted_cells(s_child, t_child) == [(sorted(c.s), sorted(c.t)) for c in old]


def _copy(p):
    return _Partition(p.lab[:], p.cell[:], p.start[:], p.size[:])


def _state(p):
    return p.lab, p.cell, p.start, p.size


def _assert_refines_like_oracle(adj1, adj2, s, t, queue):
    """Record s on adj1, then replay t on adj2 against that trace, once with
    ``_refine`` and once with the counting oracle: the same traces, return
    values and partition arrays (cells, ids and each cell's vertex order).
    Returns the refined partitions and whether the replay matched."""
    runs = []
    for refine in (_refine, counting_refine):
        s_run, t_run, trace = _copy(s), _copy(t), []
        recorded = refine(adj1, s_run, queue, trace, False)
        replayed = refine(adj2, t_run, queue, trace, True)
        runs.append((trace, recorded, replayed, _state(s_run), _state(t_run)))
    assert runs[0] == runs[1]
    return s_run, t_run, runs[0][2]


@settings(max_examples=300, deadline=None)
@given(refine_cases(), st.integers(min_value=0, max_value=10**6),
       st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=10**6))
def test_refine_matches_counting_oracle(case, i, x, y):
    # the root queue (every cell of an invariant partition, individualised
    # or not), then a child's queue (the two cells of one more x -> y split
    # of the refined partition), each recorded on g1 and replayed on g2
    g1, partners, picks = case
    for g2 in partners:
        search = _MappingSearch(g1, g2)
        cells = _pair_cells(search)
        for j, a, b in picks:
            cell = cells[j % len(cells)]
            cells = individualize(cells, cell.s[a % len(cell.s)], cell.t[b % len(cell.t)])
        s = _Partition.from_cells([c.s[:] for c in cells])
        t = _Partition.from_cells([c.t[:] for c in cells])
        s, t, replayed = _assert_refines_like_oracle(
            g1.adjacency, g2.adjacency, s, t, list(range(len(cells))))
        if not replayed:
            t = s  # replay the s side on g2 from the same child
        open_cells = [c for c in s.ids() if s.size[c] > 1]
        if not open_cells:
            continue
        at = open_cells[i % len(open_cells)]
        s_child, queue = s.child(at, s.members(at)[x % s.size[at]])
        t_child, _ = t.child(at, t.members(at)[y % t.size[at]])
        _assert_refines_like_oracle(g1.adjacency, g2.adjacency, s_child, t_child, queue)


@settings(max_examples=200, deadline=None)
@given(refine_cases())
def test_vertex_invariants_match_counted_rows(case):
    g, _, _ = case
    assert _vertex_invariants(g) == counted_vertex_invariants(g)


@settings(max_examples=200, deadline=None)
@given(random_graph_strategy(max_n=12, min_n=0))
def test_search_maps_equal_graphs_by_the_identity(g):
    # find_isomorphism answers equal graphs without searching; the search
    # itself gives the same identity map
    copy = Graph(g.n, g.edge_list)
    assert _MappingSearch(g, copy).find() == list(range(g.n))
    assert find_isomorphism(g, copy) == list(range(g.n))


@pytest.mark.parametrize("budget", [-1, True, False, 1.5, "x"])
def test_node_budget_is_validated_before_any_work(budget):
    g = make_petersen()
    for call in (
        lambda: automorphism_group(g, budget),
        lambda: automorphism_group(Graph(0, []), budget),
        lambda: find_isomorphism(g, Graph(g.n, g.edge_list), budget),
        lambda: is_isomorphic(g, make_cycle(10), budget),  # no search would run
    ):
        with pytest.raises(GraphError, match="node_budget must be None or an int >= 0"):
            call()


def test_node_budget_accepts_none_and_non_negative_ints():
    g = make_petersen()
    assert automorphism_group(g, None).order() == 120
    assert find_isomorphism(g, Graph(g.n, g.edge_list), 0) == list(range(g.n))
    with pytest.raises(BudgetExceededError):
        automorphism_group(g, 0)


def test_equal_graphs_need_no_search_nodes():
    g = subdivide(make_complete(9)).graph
    with pytest.raises(BudgetExceededError, match=_BUDGET_ERROR):
        _MappingSearch(g, g, node_budget=3).find()
    assert find_isomorphism(g, Graph(g.n, g.edge_list), node_budget=3) == list(range(g.n))


def _relabelled_pair(rng):
    g = random_connected_graph(rng, 10)
    images = list(range(g.n))
    rng.shuffle(images)
    return g, Graph(g.n, [(images[u], images[v]) for u, v in g.edge_list])


@pytest.mark.parametrize("run", [
    lambda: automorphism_group(make_petersen()),
    # seed 29 gives a graph whose first path has four levels
    lambda: find_isomorphism(*_relabelled_pair(random.Random(29))),
], ids=["Aut(Petersen)", "relabelled pair"])
def test_each_search_records_its_first_path_once(run, monkeypatch):
    # the constructor records g1's whole first path, one refinement per
    # level, and the search itself only replays traces
    recorded, searches = [0], []
    refine, init = autgrp._refine, _MappingSearch.__init__

    def counting(adj, p, queue, trace, replay):
        recorded[0] += not replay
        return refine(adj, p, queue, trace, replay)

    def keeping(self, *args, **kwargs):
        init(self, *args, **kwargs)
        searches.append(self)

    monkeypatch.setattr(autgrp, "_refine", counting)
    monkeypatch.setattr(_MappingSearch, "__init__", keeping)
    assert run() is not None
    [search] = searches
    assert search.nodes > 0
    assert recorded[0] == len(search.path) > 1


def _sha256(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def _pinned_graphs():
    return [
        make_petersen(),
        make_hoffman_singleton(),
        subdivide(make_petersen()).graph,
        subdivide(make_complete(5)).graph,
        subdivide(make_complete_bipartite(3, 3)).graph,
        subdivide(make_hoffman_singleton()).graph,
    ]


def _pinned_pairs():
    rng = random.Random(20250809)
    pairs = []
    for _ in range(20):
        g = random_connected_graph(rng, rng.randint(5, 16))
        images = list(range(g.n))
        rng.shuffle(images)
        pairs.append((g, Graph(g.n, [(images[u], images[v]) for u, v in g.edge_list])))
    return pairs


class TestPinnedBytes:
    """The refinement keeps the splitter and fragment order of the full-scan
    bitmask refinement (``_oracles.bitmask_refine``), so base points,
    generators, isomorphism maps and the subgroups ``random_subgroups``
    draws from the chain depend only on the search order. The isomorphism
    digest dates from the full-scan engine and still passes there. The
    generator digest is that of the search that walks one refined path and
    resolves its levels deepest first; replaying the t side against the
    first path's trace, in place of refining both sides in lockstep, left
    both digests and the node counts unchanged."""

    def test_generator_bytes(self):
        images = [[list(p.images) for p in automorphism_group(g).generators] for g in _pinned_graphs()]
        assert _sha256(images) == "7b84fe3db1f3dca8f8a53e952a975d89815c4585916c148cae9f164ffd78af40"

    def test_isomorphism_bytes(self):
        mappings = [find_isomorphism(g, h) for g, h in _pinned_pairs()]
        assert _sha256(mappings) == "3c8269c64b7f39bccd920c0c4e43dc4d685a2cd488fb86b0126f11da32708fae"

    def test_search_node_counts(self, monkeypatch):
        # the nodes each search visits, so that node_budget keeps its meaning
        searches = []
        init = _MappingSearch.__init__

        def recording(self, *args, **kwargs):
            init(self, *args, **kwargs)
            searches.append(self)

        monkeypatch.setattr(_MappingSearch, "__init__", recording)
        aut_nodes = []
        for g in _pinned_graphs():
            searches.clear()
            automorphism_group(g)
            aut_nodes.append([s.nodes for s in searches])
        assert aut_nodes == [[10], [59], [10], [10], [14], [56]]
        iso_nodes = []
        for g, h in _pinned_pairs():
            searches.clear()
            find_isomorphism(g, h)
            iso_nodes.append([s.nodes for s in searches])
        assert iso_nodes == [[2], [1], [2]] + [[1]] * 3 + [[2]] + [[1]] * 13
