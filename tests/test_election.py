import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given

import reference_tally as ref
from conftest import elections, triples
from dodgson import DodgsonTriple, Election, condorcet_winner, pairwise_stats
from dodgson import SamplerConfig, sample_election
from dodgson.ballots import format_ballots, parse_ballots
from dodgson.codec import decode, encode
from dodgson.election import adjacency_counts, preference_counts


def brute_prefer(e, x, y):
    # independent tally: #votes preferring x to y
    return sum(1 for v in e.votes if v.index(x) > v.index(y))


class TestValidation:
    def test_rejects_zero_candidates(self):
        with pytest.raises(ValueError):
            Election(0, ((),))

    def test_rejects_zero_votes(self):
        with pytest.raises(ValueError):
            Election(2, ())

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            Election(3, ((1, 2, 2),))
        with pytest.raises(ValueError):
            Election(3, ((1, 2),))
        with pytest.raises(ValueError):
            Election(3, ((1, 2, 4),))

    def test_rejects_candidate_out_of_range(self):
        e = Election(3, ((1, 2, 3),))
        with pytest.raises(ValueError):
            DodgsonTriple(e, 0)
        with pytest.raises(ValueError):
            DodgsonTriple(e, 4)

    def test_accepts_list_votes(self):
        e = Election(2, [[1, 2], [2, 1]])
        assert e.votes == ((1, 2), (2, 1))

    def test_huge_m_fails_on_shape_first(self):
        with pytest.raises(ValueError, match="vote 0 is not a permutation"):
            Election(10**9, ((1,),))

    def test_first_bad_vote_is_named(self):
        with pytest.raises(ValueError, match=r"vote 2 is not a permutation of 1..3: \(1, 3, 3\)"):
            Election(3, ((1, 2, 3), (3, 2, 1), (1, 3, 3), (0, 1, 2)))

    def test_rejects_non_integer_entries(self):
        for bad in ((1.0, 2.0), ("1", "2"), (1, 2**70), (1, None)):
            with pytest.raises(ValueError, match="vote 1 is not a permutation"):
                Election(2, ((1, 2), bad))


class TestFromRows:
    def test_array_rows(self):
        arr = np.array([[2, 1, 3], [1, 3, 2]], dtype=np.int64)
        e = Election.from_rows(3, arr)
        assert e == Election(3, ((2, 1, 3), (1, 3, 2)))
        assert all(type(c) is int for v in e.votes for c in v)
        assert e.ranks.dtype == np.int32 and not e.ranks.flags.writeable
        arr[0, 0] = 3  # the election keeps its own copy
        assert e.ranks[0, 0] == 2

    def test_iterable_rows(self):
        assert Election.from_rows(2, iter([[1, 2]])) == Election(2, ((1, 2),))

    def test_array_errors(self):
        with pytest.raises(ValueError, match=r"vote 1 is not a permutation of 1..2: \(2, 2\)"):
            Election.from_rows(2, np.array([[1, 2], [2, 2]]))
        with pytest.raises(ValueError, match="vote 0 is not a permutation"):
            Election.from_rows(2, np.array([[1.0, 2.0]]))
        with pytest.raises(ValueError, match=r"expected an \(n, 3\) array"):
            Election.from_rows(3, np.array([[1, 2]]))
        with pytest.raises(ValueError, match="at least one vote"):
            Election.from_rows(3, np.zeros((0, 3), dtype=int))

    @given(elections())
    def test_ranks_match_votes(self, e):
        assert e.ranks.tolist() == [list(v) for v in e.votes]
        assert Election.from_rows(e.m, e.ranks) == e


class TestStoredForm:
    def test_bulk_construction_does_not_build_votes(self):
        e = sample_election(SamplerConfig(5, 40, seed=1))
        assert "votes" not in vars(e)
        parsed = parse_ballots(format_ballots(e)).election
        assert "votes" not in vars(parsed)
        decoded = decode(encode(DodgsonTriple(e, 1))).election
        assert "votes" not in vars(decoded)
        assert parsed == decoded == e

    def test_votes_derived_on_first_read(self):
        e = Election.from_rows(3, np.array([[2, 1, 3], [1, 3, 2]], dtype=np.int64))
        assert e.votes == ((2, 1, 3), (1, 3, 2))
        assert all(type(v) is tuple and all(type(c) is int for c in v) for v in e.votes)
        assert vars(e)["votes"] is e.votes  # cached
        assert e.n == 2

    def test_equal_profiles_from_any_input_form(self):
        rows = ((2, 1, 3), (1, 3, 2))
        forms = [
            Election(3, rows),
            Election(3, [list(r) for r in rows]),
            Election(3, np.array(rows, dtype=np.int64)),
            Election(3, np.array(rows, dtype=np.uint8)),
            Election.from_rows(3, iter(rows)),
        ]
        for e in forms:
            assert e == forms[0] and hash(e) == hash(forms[0])
        assert len(set(forms)) == 1
        assert Election(3, rows[::-1]) != forms[0]
        assert Election(3, rows[:1]) != forms[0]
        assert Election(2, ((1, 2),)) != Election(3, ((1, 2, 3),))
        assert forms[0] != rows

    def test_immutable(self):
        e = Election(2, ((1, 2),))
        with pytest.raises(dataclasses.FrozenInstanceError):
            e.m = 3
        with pytest.raises(ValueError):
            e.ranks[0, 0] = 2


class TestPairwiseStats:
    def test_sixty_forty_candidate_a(self, sixty_forty):
        stats = pairwise_stats(DodgsonTriple(sixty_forty, 1))
        assert stats.deficit == {2: 100, 3: 20, 4: 20}
        assert stats.swaps == {2: 100, 3: 0, 4: 0}

    def test_sixty_forty_candidate_d_beats_all(self, sixty_forty):
        # d wins every pairwise race: 60-40 over a and b, 100-0 over c
        stats = pairwise_stats(DodgsonTriple(sixty_forty, 4))
        assert all(z < 0 for z in stats.deficit.values())
        expected = {
            d: (100 - brute_prefer(sixty_forty, 4, d)) - brute_prefer(sixty_forty, 4, d)
            for d in (1, 2, 3)
        }
        assert stats.deficit == expected == {1: -20, 2: -20, 3: -100}

    def test_single_candidate_empty_maps(self):
        e = Election(1, ((1,),) * 3)
        stats = pairwise_stats(DodgsonTriple(e, 1))
        assert stats.deficit == {} and stats.swaps == {}

    @given(triples())
    def test_deficit_matches_brute_tally(self, tc):
        e, c = tc
        stats = pairwise_stats(DodgsonTriple(e, c))
        for d in e.candidates:
            if d != c:
                assert stats.deficit[d] == brute_prefer(e, d, c) - brute_prefer(e, c, d)

    @given(triples())
    def test_deficit_parity(self, tc):
        e, c = tc
        stats = pairwise_stats(DodgsonTriple(e, c))
        assert all(z % 2 == e.n % 2 for z in stats.deficit.values())

    @given(triples())
    def test_swaps_partition_votes(self, tc):
        # each vote contributes one swap opportunity unless c is on top
        e, c = tc
        stats = pairwise_stats(DodgsonTriple(e, c))
        on_top = sum(1 for v in e.votes if v[-1] == c)
        assert sum(stats.swaps.values()) + on_top == e.n
        assert all(0 <= s <= e.n for s in stats.swaps.values())

    @given(triples(max_m=4, max_n=6))
    def test_invariant_under_vote_reordering(self, tc):
        e, c = tc
        for perm in itertools.islice(itertools.permutations(e.votes), 12):
            shuffled = Election(e.m, perm)
            assert pairwise_stats(DodgsonTriple(shuffled, c)) == pairwise_stats(
                DodgsonTriple(e, c)
            )


class TestCondorcetWinner:
    def test_sixty_forty(self, sixty_forty):
        assert condorcet_winner(sixty_forty) == 4

    def test_cycle_has_none(self, cycle):
        assert condorcet_winner(cycle) is None

    def test_single_candidate(self):
        assert condorcet_winner(Election(1, ((1,),))) == 1

    @given(elections())
    def test_characterization_and_uniqueness(self, e):
        winners = [
            c
            for c in e.candidates
            if all(z < 0 for z in pairwise_stats(DodgsonTriple(e, c)).deficit.values())
        ]
        assert len(winners) <= 1
        assert condorcet_winner(e) == (winners[0] if winners else None)


class TestVectorizedCounts:
    @given(elections())
    def test_matrices_match_single_pass_stats(self, e):
        pref = preference_counts(e.ranks)
        adj = adjacency_counts(e.ranks)
        for c in e.candidates:
            stats = pairwise_stats(DodgsonTriple(e, c))
            for d in e.candidates:
                if d == c:
                    continue
                assert stats.deficit[d] == pref[d - 1, c - 1] - pref[c - 1, d - 1]
                assert stats.swaps[d] == adj[c - 1, d - 1]

    def test_preference_counts_chunking(self):
        # force multiple chunks through a profile larger than one block
        rng = np.random.default_rng(0)
        m = 40
        ranks = np.stack([rng.permutation(m) + 1 for _ in range(5000)]).astype(np.int32)
        whole = preference_counts(ranks)
        assert whole[0, 1] + whole[1, 0] == 5000
        assert (whole + whole.T + np.eye(m, dtype=int) * 5000 == 5000).all()
        assert np.array_equal(whole, ref.preference_counts(ranks))

    @pytest.mark.parametrize("m, n, identical", [
        (1, 3, False),
        (2, 65535, True), (2, 65536, True), (2, 70000, True),  # uint16 block sums
        (255, 20, False), (256, 20, False), (257, 20, False),  # uint8 -> uint16 positions
    ])
    def test_preference_counts_dtype_and_chunk_edges(self, m, n, identical):
        rng = np.random.default_rng(m)
        votes = [rng.permutation(m) + 1 for _ in range(1 if identical else n)]
        ranks = np.stack(votes * n if identical else votes).astype(np.int32)
        assert np.array_equal(preference_counts(ranks), ref.preference_counts(ranks))
