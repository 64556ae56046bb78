"""Vectorised rank-table kernels versus the per-subset reference scans.

The graphic-rank DP in ``cycle_matroid`` and the gather kernel behind
``delete``/``contract`` must give byte-identical tables to the plain
loops they replaced, which are kept here as oracles.  The constructors
that no longer re-check the rank axioms are checked here instead: each
must still return a table for which ``validate_rank_axioms`` is None.
"""

import pytest
from hypothesis import given, settings, strategies as st

from lamina.core import Matroid, validate_rank_axioms
from lamina.constructions import (
    CyclicFlatFamily,
    Multigraph,
    cycle_matroid,
    direct_sum,
    from_cyclic_flats,
    named_matroid,
    relax_circuit_hyperplane,
    truncate,
    uniform,
)
from lamina.corpus import CorpusSpec, generate_corpus
from lamina.minors import contract, delete

PROPERTY = settings(max_examples=300, deadline=None, database=None, derandomize=True)


def reference_cycle_table(G: Multigraph) -> bytes:
    """Union-find over the edges of every subset, one subset at a time."""
    table = bytearray(1 << len(G.edges))
    for A in range(1, len(table)):
        parent = list(range(G.vertex_count))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        m = A
        while m:
            bit = m & -m
            m ^= bit
            u, v = G.edges[bit.bit_length() - 1]
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                table[A] += 1
    return bytes(table)


def reference_minor(M: Matroid, drop: int, C: int) -> tuple[tuple[str, ...], bytes]:
    """Labels and table of M / C \\ (drop - C), one subset at a time."""
    keep = [i for i in range(M.n) if not drop >> i & 1]
    rt = M.rank_table
    table = bytearray(1 << len(keep))
    for A in range(len(table)):
        full = 0
        for j, i in enumerate(keep):
            if A >> j & 1:
                full |= 1 << i
        table[A] = rt[full | C] - rt[C]
    return tuple(M.labels[i] for i in keep), bytes(table)


@st.composite
def multigraphs(draw):
    """Loops, parallel edges, isolated vertices and the empty edge set."""
    nv = draw(st.integers(1, 12))
    vertex = st.integers(0, nv - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=10))
    return Multigraph(nv, tuple(edges))


_CORPUS = generate_corpus(CorpusSpec(seed=21, count=120, max_elements=8))


class TestCycleMatroidKernel:
    @PROPERTY
    @given(multigraphs())
    def test_matches_union_find(self, G):
        assert cycle_matroid(G).rank_table == reference_cycle_table(G)

    def test_sixteen_edges_on_many_vertices(self):
        # a 16-cycle on vertex ids spread over 0..39, so most vertices are
        # isolated; the largest table the DP builds
        ends = list(range(0, 40, 5)) + list(range(1, 40, 5))
        edges = tuple(zip(ends, ends[1:] + ends[:1]))
        G = Multigraph(40, edges)
        assert len(edges) == 16
        assert cycle_matroid(G).rank_table == reference_cycle_table(G)


class TestMinorKernel:
    @PROPERTY
    @given(st.sampled_from(_CORPUS), st.integers(0, (1 << 16) - 1),
           st.integers(0, (1 << 16) - 1))
    def test_delete_and_contract_match_subset_scan(self, M, d, c):
        D, C = d & M.E, c & M.E
        for drop, con, got in ((D, 0, delete(M, D)), (C, C, contract(M, C))):
            assert (got.labels, got.rank_table) == reference_minor(M, drop, con)

    def test_empty_and_full_masks(self):
        M = named_matroid("f7")
        assert delete(M, 0) == M and contract(M, 0) == M
        for N in (delete(M, M.E), contract(M, M.E)):
            assert N.n == 0 and N.rank_table == b"\x00"


def _unvalidated_outputs(M: Matroid):
    """What each constructor that skips the rank-axiom check builds from M."""
    yield M.dual()
    for i in range(M.n):
        yield delete(M, 1 << i)
        yield contract(M, 1 << i)
    if M.full_rank():
        yield truncate(M, M.full_rank() - 1)
    if M.n <= 13:
        yield direct_sum(M, uniform(1, 3))
    yield from_cyclic_flats(CyclicFlatFamily(M.labels, M.cyclic_flats()))
    r = M.full_rank()
    for X in M.circuits():
        if M.rank_table[X] == r - 1 and M.is_flat(X):
            yield relax_circuit_hyperplane(M, X)
            break


class TestTheoremBackedConstructors:
    """Constructors that trust a theorem instead of re-checking R1-R3."""

    def test_corpus_members_and_their_derivatives_are_matroids(self):
        # the corpus itself covers cycle, laminar, transversal, sparse
        # paving, catalog and minor constructions
        checked = 0
        for M in _CORPUS:
            for N in (M, *_unvalidated_outputs(M)):
                assert validate_rank_axioms(N.rank_table, N.n) is None, N
                checked += 1
        assert checked > 10 * len(_CORPUS)

    @pytest.mark.parametrize("name", ["f7", "f7star", "mk23minus"])
    def test_catalog_matroids(self, name):
        M = named_matroid(name)
        assert validate_rank_axioms(M.rank_table, M.n) is None

    def test_uniform(self):
        for n in range(7):
            for r in range(n + 1):
                M = uniform(r, n)
                assert validate_rank_axioms(M.rank_table, n) is None
