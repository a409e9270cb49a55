import io
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmlab.btrank import PairwiseWins, bt_fit, read_pairs_csv, scores_csv
from harmlab.errors import RankingError


def wins_matrix(labels, entries):
    w = np.zeros((len(labels), len(labels)), dtype=np.int64)
    for i, j, c in entries:
        w[i, j] = c
    return PairwiseWins(labels=list(labels), wins=w)


def chain(n):
    """Each method beats its successor twice and loses to it once."""
    return wins_matrix([f"m{i:03d}" for i in range(n)],
                       [e for i in range(n - 1) for e in ((i, i + 1, 2), (i + 1, i, 1))])


def assert_at_optimum(data, result):
    """Every |g_i| <= 1e-12 * (comparisons of i), the gradient taken over the methods with wins."""
    live = ~result.zero_win
    wins = data.wins[np.ix_(live, live)].astype(np.float64)
    p = result.scores[live]
    n_ij = wins + wins.T
    grad = wins.sum(axis=1) - np.sum(n_ij * p[:, None] / (p[:, None] + p[None, :]), axis=1)
    assert np.all(np.abs(grad) <= 1e-12 * n_ij.sum(axis=1))


class TestFitBasics:
    def test_even_split_is_symmetric(self):
        data = wins_matrix("AB", [(0, 1, 5), (1, 0, 5)])
        result = bt_fit(data)
        assert np.allclose(result.scores, [0.5, 0.5], atol=1e-10)

    def test_three_to_one_closed_form(self):
        data = wins_matrix("AB", [(0, 1, 3), (1, 0, 1)])
        result = bt_fit(data)
        assert np.allclose(result.scores, [0.75, 0.25], atol=1e-10)

    def test_scores_sum_to_one(self):
        rng = np.random.default_rng(0)
        w = rng.integers(1, 40, size=(4, 4))
        np.fill_diagonal(w, 0)
        result = bt_fit(PairwiseWins(labels=list("ABCD"), wins=w))
        assert abs(result.scores.sum() - 1.0) <= 1e-12
        assert np.all(result.scores > 0.0)

    def test_four_method_ordering(self):
        # clear dominance chain: A > B > C > D
        labels = ["ours", "second", "third", "fourth"]
        entries = []
        strengths = [40, 30, 20, 5]
        for i in range(4):
            for j in range(4):
                if i != j:
                    entries.append((i, j, strengths[i]))
        result = bt_fit(wins_matrix(labels, entries))
        order = [name for name, _ in result.ranking()]
        assert order == labels

    @given(st.integers(1, 50), st.integers(1, 50))
    @settings(max_examples=40, deadline=None)
    def test_two_player_closed_form_property(self, wa, wb):
        result = bt_fit(wins_matrix("AB", [(0, 1, wa), (1, 0, wb)]))
        assert abs(result.scores[0] - wa / (wa + wb)) <= 1e-9

    def test_count_scaling_invariance(self):
        rng = np.random.default_rng(1)
        w = rng.integers(1, 20, size=(3, 3))
        np.fill_diagonal(w, 0)
        base = bt_fit(PairwiseWins(labels=list("ABC"), wins=w))
        scaled = bt_fit(PairwiseWins(labels=list("ABC"), wins=w * 7))
        assert np.allclose(base.scores, scaled.scores, atol=1e-9)

    def test_label_permutation_equivariance(self):
        rng = np.random.default_rng(2)
        w = rng.integers(1, 20, size=(4, 4))
        np.fill_diagonal(w, 0)
        base = bt_fit(PairwiseWins(labels=list("ABCD"), wins=w))
        perm = [2, 0, 3, 1]
        wp = w[np.ix_(perm, perm)]
        permuted = bt_fit(PairwiseWins(labels=[list("ABCD")[i] for i in perm], wins=wp))
        assert dict(base.ranking()) == pytest.approx(dict(permuted.ranking()), abs=1e-9)


class TestNewton:
    @pytest.mark.parametrize("n", [25, 100, 400])
    def test_long_chain_fits_at_the_optimum(self, n):
        data = chain(n)
        result = bt_fit(data)
        assert result.iterations <= 10
        assert np.all(np.diff(result.scores) < 0.0)
        assert_at_optimum(data, result)

    def test_underflowed_scores_keep_chain_order(self):
        # theta falls by ln 2 a method, so exp underflows to 0 past about the 1074th;
        # labels sort in reverse chain order, so a label tie-break would show
        n = 1200
        data = wins_matrix([f"m{n - 1 - i:04d}" for i in range(n)],
                           [e for i in range(n - 1) for e in ((i, i + 1, 2), (i + 1, i, 1))])
        result = bt_fit(data)
        assert np.sum(result.scores == 0.0) > 100 and not result.zero_win.any()
        assert [name for name, _ in result.ranking()] == data.labels

    def test_huge_counts_give_the_same_scores(self):
        w = np.array([[0, 3, 2], [1, 0, 5], [4, 1, 0]], dtype=np.int64)
        base = bt_fit(PairwiseWins(labels=list("ABC"), wins=w))
        data = PairwiseWins(labels=list("ABC"), wins=w * 10**9)
        scaled = bt_fit(data)
        assert np.max(np.abs(scaled.scores - base.scores)) <= 1e-9
        assert_at_optimum(data, scaled)

    @pytest.mark.parametrize("w", [
        [[0, 2, 0, 4370], [2, 0, 81065, 0], [0, 0, 0, 5366], [1, 0, 0, 0]],
        [[0, 1, 0, 0], [1, 0, 1, 646401], [5, 552332, 0, 43], [1, 0, 4224712, 0]],
        [[0, 95510, 0, 0, 3432637, 0], [388, 0, 1, 1124, 0, 211], [94, 0, 0, 42, 74213, 34],
         [5193, 31, 1217, 0, 1036, 0], [103742, 0, 1127903114120, 16815, 0, 318], [42965, 221, 781, 0, 0, 0]],
    ], ids=["full-step-overshoots", "light-method-beside-heavy-ones", "count-of-1e12"])
    def test_lopsided_counts_fit_at_the_optimum(self, w):
        data = PairwiseWins(labels=list("ABCDEF")[:len(w)], wins=np.array(w))
        assert_at_optimum(data, bt_fit(data))

    @given(st.data())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_strongly_connected_fit_property(self, draw):
        m = draw.draw(st.integers(2, 6))
        w = np.array(draw.draw(st.lists(st.integers(0, 29), min_size=m * m, max_size=m * m))).reshape(m, m)
        for i in range(m):  # a cycle of wins makes the win graph strongly connected
            w[i, (i + 1) % m] = max(w[i, (i + 1) % m], 1)
        np.fill_diagonal(w, 0)
        data = PairwiseWins(labels=list("ABCDEF")[:m], wins=w)
        result = bt_fit(data)
        assert abs(result.scores.sum() - 1.0) <= 1e-12
        assert_at_optimum(data, result)


class TestEdgeCases:
    @pytest.mark.parametrize("text, unbeaten", [
        ("A,B,3\nA,C,2\nB,C,1\nC,B,1\n", r"\{A\}"),
        ("A,B,1\nB,C,1\n", r"\{A\}"),
        # D has no wins and C beat only D, so C never beat A or B
        ("A,B,2\nB,A,1\nA,C,1\nC,D,1\n", r"\{A, B\}"),
    ], ids=["beats-both", "chain-of-three", "pair-over-c"])
    def test_undefeated_set_is_named(self, text, unbeaten):
        with pytest.raises(RankingError, match=r"no maximum-likelihood fit: " + unbeaten + " never lost"):
            bt_fit(read_pairs_csv(io.StringIO(text)))

    def test_disconnected_graph_lists_components(self):
        data = wins_matrix("ABCD", [(0, 1, 3), (1, 0, 2), (2, 3, 4), (3, 2, 1)])
        with pytest.raises(RankingError, match=r"\{A, B\}.*\{C, D\}"):
            bt_fit(data)

    def test_zero_win_method_pinned_at_zero(self):
        data = wins_matrix("ABC", [(0, 1, 3), (1, 0, 2), (0, 2, 4), (1, 2, 1)])
        result = bt_fit(data)
        assert result.scores[2] == 0.0
        assert result.zero_win.tolist() == [False, False, True]
        assert abs(result.scores.sum() - 1.0) <= 1e-12

    def test_single_method_rejected(self):
        with pytest.raises(RankingError):
            bt_fit(PairwiseWins(labels=["only"], wins=np.zeros((1, 1), dtype=np.int64)))

    def test_negative_counts_rejected(self):
        with pytest.raises(RankingError):
            PairwiseWins(labels=list("AB"), wins=np.array([[0, -1], [2, 0]]))

    @pytest.mark.parametrize("count", [np.inf, 1e30, 2.0**63])
    def test_float_count_beyond_int64_rejected(self, count):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RankingError, match="exceeds 9223372036854775807"):
                PairwiseWins(labels=list("AB"), wins=np.array([[0.0, count], [2.0, 0.0]]))

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(RankingError):
            PairwiseWins(labels=list("AB"), wins=np.array([[1, 2], [2, 0]]))


class TestCsv:
    def test_read_with_header_and_accumulation(self):
        text = "winner,loser,count\nA,B,2\nA,B,1\nB,A,1\n"
        data = read_pairs_csv(io.StringIO(text))
        assert data.labels == ["A", "B"]
        assert data.wins.tolist() == [[0, 3], [1, 0]]

    def test_read_without_header(self):
        data = read_pairs_csv(io.StringIO("x,y,4\ny,x,4\n"))
        assert data.wins.sum() == 8

    def test_bad_count_rejected(self):
        with pytest.raises(RankingError, match="bad count"):
            read_pairs_csv(io.StringIO("a,b,many\n"))

    @pytest.mark.parametrize("text", ["a,b,99999999999999999999\n", "a,b,9223372036854775807\na,b,1\n"])
    def test_count_beyond_int64_rejected(self, text):
        with pytest.raises(RankingError, match="exceeds"):
            read_pairs_csv(io.StringIO(text))

    def test_scores_csv_sorted_descending(self):
        result = bt_fit(read_pairs_csv(io.StringIO("A,B,3\nB,A,1\n")))
        text = scores_csv(result)
        assert text.splitlines() == ["method,score", "A,0.75", "B,0.25"]
