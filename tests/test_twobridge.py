import random
from collections import namedtuple
from functools import cache, partial
from itertools import combinations, product
from math import factorial, prod
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kakimizu import complexes, twobridge
from kakimizu.complexes import ComplexShape, SimplicialComplex, recognize, to_json
from kakimizu.errors import InputError, SizeLimitError, StructureError
from kakimizu.twobridge import (BandChain, apply_band, build_complex,
                                flanking_disks, hopf_orbits)

from catalog import ROWS
from census import check as check_census
from euler import euler_characteristic
from setoracles import (all_full_passes, band_moves, every_tuple, labelled_pass_complex,
                        recorded_build, set_is_connected, set_is_flag, walk_inputs)

CHAIN_ENTRIES = [-6, -4, -2, 2, 4, 6]


def bfs_orbit_count(bands):
    """Independent oracle: breadth-first closure over conditional Hopf flips.

    Shares no code with hopf_orbits; the move rules are restated inline.
    """
    n = len(bands)
    hopf = [k for k in range(1, n + 1) if bands[k - 1] in (2, -2)]
    seen = set()
    count = 0
    for start in product((0, 1), repeat=n - 1):
        if start in seen:
            continue
        count += 1
        queue = [start]
        seen.add(start)
        while queue:
            t = queue.pop()
            for k in hopf:
                disks = [d for d in (k - 1, k) if 1 <= d <= n - 1]
                if len(disks) == 2 and t[disks[0] - 1] != t[disks[1] - 1]:
                    continue
                nxt = list(t)
                for d in disks:
                    nxt[d - 1] ^= 1
                nxt = tuple(nxt)
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return count


def closed_form_counts(bands):
    """Dimensions, vertex count and maximal simplex count of the complex.

    With p_0 < ... < p_m the positions of the bands with |e| != 2 (m = 0
    when there are fewer than two) and L_i = p_i - p_(i-1), the complex is
    pure of dimension m, with prod(L_i + 1) vertices and m! * prod(L_i)
    maximal simplices.
    """
    positions = [k for k, e in enumerate(bands) if abs(e) != 2]
    gaps = [b - a for a, b in zip(positions, positions[1:])]
    m = len(gaps)
    return {m}, prod(g + 1 for g in gaps), factorial(m) * prod(gaps)


def is_rule_chain(chain):
    """At most one band of `chain` is not a Hopf band, so its complex is
    the point that build_complex returns without orbits or passes."""
    return sum(abs(e) != 2 for e in chain.bands) <= 1


def orbit_labels(chain):
    """Each surface tuple's orbit label, read off :func:`hopf_orbits`."""
    return {t: label for label, members in hopf_orbits(chain).items() for t in members}


def band_passes(chain, start):
    """Orbit-label sets visited by every full pass from `start`: the
    unpruned pass walk driven by the public band moves."""
    label_of = orbit_labels(chain)
    return all_full_passes(start, range(1, chain.n + 1),
                           lambda t, k: apply_band(chain, t, k), label_of.__getitem__)


def walk_cycles(chain, start, label_of):
    """Reference oracle: visited-orbit sets of a recursive walk over every
    ordering of the bands, restating the full-pass definition directly."""
    results = set()

    def walk(t, remaining, visited):
        if not remaining:
            assert t == start, "a full pass must return to its starting surface"
            results.add(frozenset(visited))
            return
        for k in remaining:
            t2 = apply_band(chain, t, k)
            if t2 is not None:
                walk(t2, remaining - {k}, visited | {label_of[t2]})

    walk(start, frozenset(range(1, chain.n + 1)), frozenset({label_of[start]}))
    return frozenset(results)


class TestBandChain:
    def test_from_cfe(self):
        # Hopf bands 1, 3 and 4 join all 8 surfaces into one orbit
        chain = BandChain((2, -6, -2, 2))
        assert chain.n == 4 and chain.disks == 3
        assert hopf_orbits(chain) == {(0, 0, 0): set(product((0, 1), repeat=3))}

    def test_no_hopf(self):
        assert hopf_orbits(BandChain((-8, -4))) == {(0,): {(0,)}, (1,): {(1,)}}

    def test_single_band(self):
        chain = BandChain((2,))
        assert chain.disks == 0

    @pytest.mark.parametrize("bad", [(), (3,), (0,), (2.0,)])
    def test_rejects(self, bad):
        with pytest.raises(InputError):
            BandChain(bad)

    def test_parse_fraction_normalises(self):
        assert BandChain.parse("33/73").bands == (-2, -6, -4, -2)

    def test_parse_unclosed_list(self):
        with pytest.raises(InputError, match=r"^expected a bracket list, got '\[2,4'$"):
            BandChain.parse("[2,4")


class TestMoves:
    def test_interior_needs_equal_flanks(self):
        chain = BandChain((-4, -2, -2, -2, -4, -2))
        assert apply_band(chain, (1, 0, 1, 0, 0), 2) is None
        assert apply_band(chain, (1, 1, 1, 0, 0), 2) is not None

    def test_boundary_always_applicable(self):
        chain = BandChain((-8, -4))
        assert apply_band(chain, (0,), 1) is not None
        assert apply_band(chain, (0,), 2) is not None

    def test_apply_end_band(self):
        chain = BandChain((-8, -4))
        assert apply_band(chain, (0,), 1) == (1,)
        assert apply_band(chain, (0,), 2) == (1,)

    def test_apply_interior_double_flip(self):
        chain = BandChain((-4, -2, -2, -2, -4, -2))
        assert apply_band(chain, (0, 0, 0, 0, 0), 3) == (0, 1, 1, 0, 0)

    def test_not_applicable_is_none(self):
        chain = BandChain((-4, -2, -2, -2, -4, -2))
        assert apply_band(chain, (1, 0, 1, 0, 0), 2) is None

    @pytest.mark.parametrize("t", [(0,), (0, 0, 0), (0, 2)])
    def test_malformed_tuple(self, t):
        with pytest.raises(InputError) as err:
            apply_band(BandChain((4, 4, 4)), t, 1)
        assert str(err.value) == f"surface tuple must be 2 bits, got {t!r}"

    def test_index_out_of_range(self):
        chain = BandChain((-8, -4))
        with pytest.raises(InputError):
            flanking_disks(chain, 3)

    @given(st.lists(st.sampled_from(CHAIN_ENTRIES), min_size=2, max_size=7), st.data())
    @settings(max_examples=200, deadline=None)
    def test_involution(self, bands, data):
        chain = BandChain(tuple(bands))
        t = tuple(data.draw(st.sampled_from([0, 1])) for _ in range(chain.disks))
        k = data.draw(st.integers(1, chain.n))
        t2 = apply_band(chain, t, k)
        if t2 is not None:
            assert apply_band(chain, t2, k) == t


class TestHopfOrbits:
    @pytest.mark.parametrize("bands,count", [
        ((-2, -6, -4, -2), 2),
        ((-4, -2, -2, -2, -4, -2), 5),
        ((6, 4), 2),
        ((2, -6, -2, 2), 1),
    ])
    def test_counts(self, bands, count):
        assert len(hopf_orbits(BandChain(bands))) == count

    def test_orbit_sizes(self):
        # 32 tuples split into 5 orbits; the free end bit doubles the sizes
        # of the 6,4,4,1,1 partition of the interior 4-bit cube
        orbits = hopf_orbits(BandChain((-4, -2, -2, -2, -4, -2)))
        assert sorted(map(len, orbits.values())) == [2, 2, 8, 8, 12]

    def test_partition(self):
        chain = BandChain((4, 2, -4, 2))
        orbits = hopf_orbits(chain)
        everything = set(product((0, 1), repeat=chain.disks))
        union = set()
        for label, members in orbits.items():
            assert members, "orbits are nonempty"
            assert not (union & members), "orbits are disjoint"
            union |= members
            assert label == min(members)
        assert union == everything
        assert list(orbits) == sorted(orbits)

    def test_keys_are_the_complex_labels_exhaustive(self):
        # every chain with at most 5 bands of twist 2 or 4
        for w in oracle_sweep():
            check_orbit_keys(w)

    def test_no_hopf_identity_partition(self):
        chain = BandChain((4, -6, 4))
        assert len(hopf_orbits(chain)) == 2 ** chain.disks

    @given(st.lists(st.sampled_from(CHAIN_ENTRIES), min_size=1, max_size=5))
    @settings(max_examples=250, deadline=None)
    def test_against_bfs_oracle(self, bands):
        assert len(hopf_orbits(BandChain(tuple(bands)))) == bfs_orbit_count(bands)

    def test_against_bfs_oracle_exhaustive(self):
        # every chain with at most 5 bands over the table's twist range
        checked = 0
        for n in range(1, 6):
            for bands in product(CHAIN_ENTRIES, repeat=n):
                assert len(hopf_orbits(BandChain(bands))) == bfs_orbit_count(bands)
                checked += 1
        assert checked == 6 + 36 + 216 + 1296 + 7776


class TestMaximalCycles:
    def test_two_band_edge(self):
        chain = BandChain((-8, -4))
        cycles = band_passes(chain, (0,))
        assert cycles == frozenset({frozenset({(0,), (1,)})})

    def test_unique_surface_single_orbit(self):
        chain = BandChain((2, -6, -2, 2))
        (label,) = hopf_orbits(chain)
        assert band_passes(chain, (0, 0, 0)) == frozenset({frozenset({label})})

    def test_no_three_orbit_cycle(self):
        chain = BandChain((4, 2, -4, 2))
        label_of = orbit_labels(chain)
        cycles = band_passes(chain, (1, 0, 0))
        assert frozenset({label_of[(1, 0, 0)], label_of[(0, 0, 0)]}) in cycles
        assert all(len(c) <= 2 for c in cycles)

    def test_matches_ordering_walk_exhaustive(self):
        # every (chain, start) pair with at most 4 bands of twist 2 or 4
        pairs = 0
        for n in range(1, 5):
            for bands in product((-4, -2, 2, 4), repeat=n):
                chain = BandChain(bands)
                label_of = orbit_labels(chain)
                for start in product((0, 1), repeat=chain.disks):
                    assert band_passes(chain, start) == walk_cycles(chain, start, label_of)
                    pairs += 1
        assert pairs == 2340


class TestLeastStartPruning:
    def test_union_matches_unpruned_oracle_exhaustive(self):
        # every chain with at most 5 bands of twist 2 or 4: the passes kept
        # from their least states span what every pass from every start
        # does, and somewhere the oracle keeps a pass the walker drops
        assert sum(passes_beyond_walker(w) for w in oracle_sweep()) > 0

    def test_walk_steps_each_pass_from_its_least_tuple(self):
        # from (0, 0) both walks take 3 + 6 + 3 band moves; from the other
        # three tuples the walker does not step a mask whose tuple is below
        # the start (6, 5 and 3 moves, against the oracle's 10, 10 and 12),
        # and keeps no pass
        chain = BandChain((4, 4, 4))
        index, _ = walk_inputs(chain)
        moves, _ = band_moves(chain)
        calls = []

        def step(chain, t, k):
            calls.append(t)
            return apply_band(chain, t, k)
        with mock.patch.object(twobridge, "apply_band", step):
            kept = [twobridge._full_passes(chain, t, index) for t in every_tuple(chain)]
            pruned = len(calls)
            calls.clear()
            for t in every_tuple(chain):
                all_full_passes(t, moves, partial(step, chain), index.__getitem__)
        assert kept == [{0b1011, 0b1101}, set(), set(), set()]
        assert (pruned, len(calls)) == (26, 44)


class TestWalkerChecks:
    """The 2-bridge walker's StructureErrors, reached by patching
    twobridge.apply_band with a step that is not a band move.  The chains
    have no Hopf band, so hopf_orbits applies no band and every tuple is
    an orbit of its own."""

    def test_order_dependent_step_raises(self):
        # each band sets the surface to a tuple of its own, so the last of
        # two bands decides where they end
        def step(chain, t, k):
            return ((0, 1), (1, 0), (1, 1))[k - 1]
        with mock.patch.object(twobridge, "apply_band", step):
            with pytest.raises(StructureError, match="^the surface after a set of bands "
                                                     "depends on their order$"):
                build_complex(BandChain((4, 4, 4)))

    def test_order_is_checked_before_a_branch_is_dropped(self):
        # from (1, 0) every band goes to (1, 1), and from there bands 1 and
        # 2 go to (0, 0) and (0, 1): both orders of bands 1 and 2 end below
        # the start, in different tuples
        def step(chain, t, k):
            return (1, 1) if t == (1, 0) else ((0, 0), (0, 1), (0, 0))[k - 1]
        chain = BandChain((4, 4, 4))
        index, _ = walk_inputs(chain)
        with mock.patch.object(twobridge, "apply_band", step):
            with pytest.raises(StructureError, match="order"):
                twobridge._full_passes(chain, (1, 0), index)

    def test_pass_that_does_not_close_raises(self):
        # every band flips disk 1 alone: the steps commute, and three of
        # them leave disk 1 flipped
        def step(chain, t, k):
            return (1 - t[0], t[1])
        with mock.patch.object(twobridge, "apply_band", step):
            with pytest.raises(StructureError, match="^a full pass must return to its start$"):
                build_complex(BandChain((4, 4, 4)))


ChainWalks = namedtuple("ChainWalks", "chain built walked kept masks passes every_start_json "
                                      "oracle_masks oracle_passes labelled orbits")


def walk_chain(chain, oracle=False):
    """Build `chain` once and walk every surface tuple the build did not
    walk, all on one table of band steps.

    The record holds the build; the set of starts it walked, or None when
    it walked none; the starts whose walks keep a pass; the union and the
    number of the masks every walk keeps; and the JSON of the complex
    those walks span.  With `oracle` it also holds the union and number of
    setoracles.all_full_passes from every tuple, labelled_pass_complex and
    hopf_orbits; without, those four are None.
    """
    every = every_tuple(chain)
    table = {(t, k): apply_band(chain, t, k) for t in every for k in range(1, chain.n + 1)}
    with mock.patch.object(twobridge, "apply_band", lambda _, t, k: table[t, k]):
        built, walked = recorded_build(chain)
        index, names = walk_inputs(chain)
        walks = {t: walked[t] if walked and t in walked
                 else twobridge._full_passes(chain, t, index) for t in every}
        record = ChainWalks(
            chain, built, walked and frozenset(walked), [t for t in every if walks[t]],
            set().union(*walks.values()), sum(map(len, walks.values())),
            to_json(complexes.assemble((m for t in every for m in walks[t]), names)),
            None, None, None, None)
        if not oracle:
            return record
        moves, band = band_moves(chain)
        found = [all_full_passes(t, moves, band, index.__getitem__) for t in every]
        labelled = labelled_pass_complex(every, moves, band, index.__getitem__, names)
    return record._replace(
        oracle_masks={sum(1 << i for i in s) for passes in found for s in passes},
        oracle_passes=sum(map(len, found)), labelled=labelled, orbits=hopf_orbits(chain))


@cache
def small_chain_sweep():
    """walk_chain over all 5 460 chains with at most 6 bands of twist 2 or
    4, with the oracle on the 1 364 with at most 5.  The five exhaustive
    tests share it, so each chain is built and walked once per run."""
    sweep = [walk_chain(BandChain(bands), oracle=n <= 5)
             for n in range(1, 7) for bands in product((-4, -2, 2, 4), repeat=n)]
    assert len(sweep) == 5460
    return sweep


def oracle_sweep():
    """The records of small_chain_sweep that carry the oracle."""
    walks = [w for w in small_chain_sweep() if w.labelled is not None]
    assert len(walks) == 1364
    return walks


def check_prefix_starts(w):
    """No start outside prefix 00 keeps a pass, the build walks exactly the
    prefix-00 starts or, for a chain with at most one non-Hopf band, none,
    and the build's complex is the one the walks from every tuple span."""
    prefix_00 = {t for t in every_tuple(w.chain) if not any(t[:2])}
    assert set(w.kept) <= prefix_00, w.chain.bands
    assert (w.walked is None) == is_rule_chain(w.chain), w.chain.bands
    if w.walked is not None:
        assert w.walked == prefix_00, w.chain.bands
    assert to_json(w.built) == w.every_start_json, w.chain.bands


def passes_beyond_walker(w):
    """Check that the union of the walker's passes equals the oracle's, and
    return how many passes the oracle found beyond the walker's."""
    assert w.masks == w.oracle_masks, w.chain.bands
    return w.oracle_passes - w.passes


def check_euler_and_counts(w):
    """Kakimizu complexes are contractible, and their counts follow
    closed_form_counts."""
    assert euler_characteristic(w.built) == 1, w.chain.bands
    assert ({len(s) - 1 for s in w.built.simplices}, len(w.built.vertices),
            len(w.built.simplices)) == closed_form_counts(w.chain.bands), w.chain.bands


def check_orbit_keys(w):
    """The orbits come in the order of the complex's labels, each keyed by
    its least member."""
    assert list(w.orbits) == list(w.built.labels), w.chain.bands
    assert all(label == min(members) for label, members in w.orbits.items()), w.chain.bands


def check_chain(chain, oracle=False):
    """walk_chain and every check above on one chain; with `oracle`, also
    the build against labelled_pass_complex.  Returns the starts whose
    walks keep a pass."""
    w = walk_chain(chain, oracle)
    check_prefix_starts(w)
    if oracle:
        passes_beyond_walker(w)
        assert w.built == w.labelled, chain.bands
        check_euler_and_counts(w)
        check_orbit_keys(w)
    return w.kept


class TestPrefixStarts:
    """build_complex walks only from the surface tuples whose first two bits
    are 0; every other start keeps no pass, and the complex is the one the
    walks from every tuple span (check_prefix_starts)."""

    def test_exhaustive_small_chains(self):
        # all 5 460 chains with at most 6 bands of twist 2 or 4
        for w in small_chain_sweep():
            check_prefix_starts(w)

    def test_random_long_chains(self):
        rng = random.Random(17)
        for n in (7,) * 8 + (8,) * 4:
            check_chain(BandChain(tuple(rng.choice(CHAIN_ENTRIES) for _ in range(n))))

    def test_third_bit_is_no_filter(self):
        # starts with prefix 001 keep passes, so a filter on three bits
        # would lose them
        kept = check_chain(BandChain((-4,) * 7))
        assert sum(t[:3] == (0, 0, 1) for t in kept) == 8 and len(kept) == 16


class TestIndexAssembly:
    """build_complex assembles on keyed index masks from the starts it
    picks; the labelled route through from_maximal
    (setoracles.labelled_pass_complex), walked from every surface tuple, is
    the oracle."""

    def test_exhaustive_small_chains(self):
        # all 1 364 chains with at most 5 bands of twist 2 or 4
        for w in oracle_sweep():
            assert w.built == w.labelled, w.chain.bands

    def test_random_long_chains(self):
        rng = random.Random(13)
        for n in (6,) * 12 + (7,) * 6:
            check_chain(BandChain(tuple(rng.choice(CHAIN_ENTRIES) for _ in range(n))),
                        oracle=True)


def rule_chains(n, rng):
    """Chains of n bands with at most one non-Hopf band: all Hopf, then the
    non-Hopf band at each position with |e| = 4 and with |e| = 6, each band's
    sign drawn from `rng`."""
    def signed(twists):
        return BandChain(tuple(e * rng.choice((-1, 1)) for e in twists))
    yield signed([2] * n)
    for j in range(n):
        for twist in (4, 6):
            yield signed([twist if k == j else 2 for k in range(n)])


class TestOneOrbitRule:
    """A chain with at most one non-Hopf band has one Hopf orbit, and
    build_complex returns its point without calling hopf_orbits or
    walking a pass."""

    def test_point_without_orbits_or_passes(self):
        rng = random.Random(23)
        built = 0
        for n in range(1, 11):
            for chain in rule_chains(n, rng):
                assert len(hopf_orbits(chain)) == 1, chain.bands
                with mock.patch.object(twobridge, "hopf_orbits") as orbits, \
                        mock.patch.object(twobridge, "_full_passes") as passes:
                    c = build_complex(chain, max_bands=10)
                assert not orbits.called and not passes.called, chain.bands
                assert c.labels == ((0,) * (n - 1),) and c.maximal == ((0,),), chain.bands
                built += 1
        assert built == sum(2 * n + 1 for n in range(1, 11))

    def test_exhaustive_small_chains(self):
        # every chain with at most 6 bands, one of twist +-6 and the rest of
        # twist +-2; small_chain_sweep covers those of twist +-2 and +-4
        chains = 0
        for n in range(1, 7):
            for j in range(n):
                for hopf in product((-2, 2), repeat=n - 1):
                    for six in (-6, 6):
                        check_chain(BandChain(hopf[:j] + (six,) + hopf[j:]))
                        chains += 1
        assert chains == 642

    def test_random_long_chains(self):
        rng = random.Random(29)
        for n in (7, 8):
            chains = list(rule_chains(n, rng))
            for chain in rng.sample(chains, 6):
                check_chain(chain)

    @pytest.mark.parametrize("bands", [(-4, -4), (-2, -4, -2, -4, -2)])
    def test_two_non_hopf_bands_walk_passes(self, bands):
        built, starts = recorded_build(BandChain(bands))
        assert starts is not None and len(built.vertices) >= 2

    def test_band_cap_comes_first(self):
        with pytest.raises(SizeLimitError, match="^chain has 10 bands, limit is 9$"):
            build_complex(BandChain((-2,) * 10))


class TestBuildComplex:
    def test_point(self):
        c = build_complex(BandChain((2, -6, -2, 2)))
        assert str(recognize(c)) == "point"

    def test_edge(self):
        c = build_complex(BandChain((-2, -6, -4, -2)))
        assert str(recognize(c)) == "simplex(1)"

    def test_path5(self):
        c = build_complex(BandChain((-4, -2, -2, -2, -4, -2)))
        assert str(recognize(c)) == "path(5)"

    def test_single_band_point(self):
        c = build_complex(BandChain((2,)))
        assert str(recognize(c)) == "point"

    def test_two_triangles_share_an_edge(self):
        # the smallest chain with a non-path complex
        c = build_complex(BandChain((4, 4, 4)))
        assert len(c.vertices) == 4
        assert sorted(len(s) for s in c.simplices) == [3, 3]
        assert set_is_flag(c.simplices) and set_is_connected(c.simplices)

    def test_size_bound(self):
        with pytest.raises(SizeLimitError):
            build_complex(BandChain((4,) * 13))
        with pytest.raises(SizeLimitError):
            build_complex(BandChain((4, 4, 4)), max_bands=2)

    def test_catalog_shapes(self):
        for row in ROWS:
            c = build_complex(BandChain(row.cfe))
            assert str(recognize(c)) == str(ComplexShape.parse(row.shape)), row.name

    def test_euler_characteristic_is_one_exhaustive(self):
        # every chain with at most 5 bands of twist 2 or 4
        for w in oracle_sweep():
            check_euler_and_counts(w)

    @given(st.lists(st.sampled_from(CHAIN_ENTRIES), min_size=1, max_size=5))
    @settings(max_examples=150, deadline=None)
    def test_connected_and_flag(self, bands):
        c = build_complex(BandChain(tuple(bands)))
        assert set_is_connected(c.simplices)
        assert set_is_flag(c.simplices)


def test_single_move_adjacency_matches_cycles_diagnostic():
    """On every catalogued chain, two orbits are joined by one non-Hopf
    band move exactly when some maximal simplex holds both."""
    diverging = []
    for row in ROWS:
        chain = BandChain(row.cfe)
        label_of = orbit_labels(chain)
        move_edges = set()
        for t in product((0, 1), repeat=chain.disks):
            for k in range(1, chain.n + 1):
                u = None if abs(chain.bands[k - 1]) == 2 else apply_band(chain, t, k)
                if u is not None and label_of[t] != label_of[u]:
                    move_edges.add(frozenset((label_of[t], label_of[u])))
        c = build_complex(chain)
        cycle_edges = set()
        for s in c.simplices:
            cycle_edges.update(frozenset(p) for p in combinations(s, 2))
        if move_edges != cycle_edges:
            diverging.append(row.name)
    assert diverging == []


def test_randomised_start_order_independence():
    rng = random.Random(11)
    chain = BandChain((-4, 2, -2, -4))
    reference = build_complex(chain)
    for _ in range(5):
        starts = list(product((0, 1), repeat=chain.disks))
        rng.shuffle(starts)
        simplices = set()
        for start in starts:
            simplices |= band_passes(chain, start)
        rebuilt = SimplicialComplex.from_maximal(
            simplices | {frozenset([label]) for label in hopf_orbits(chain)})
        assert rebuilt == reference


class TestCensus:
    # the numbers of 2-bridge knots with 3 to 10 crossings, mirror images
    # counted once; every fraction of every knot is built and checked
    @pytest.mark.parametrize("crossings, count", [(3, 1), (4, 1), (5, 2), (6, 3), (7, 7),
                                                  (8, 12), (9, 24), (10, 45)])
    def test_every_knot_builds_and_checks(self, crossings, count):
        assert len(check_census(crossings)) == count

    def test_eleven_crossings(self):
        # the paper's crossing number; T(2, 11), whose chain is (-2)^10,
        # needs a tenth band
        assert len(check_census(11, max_bands=10)) == 91

    def test_twelve_crossings(self):
        # the longest chain at 12 crossings has 10 bands
        assert len(check_census(12, max_bands=10)) == 176
