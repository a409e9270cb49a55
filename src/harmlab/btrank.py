"""Bradley-Terry strength fitting from pairwise win counts.

Fits theta = log p by Newton's method, the negative Hessian being the graph
Laplacian with weights n_ij s_ij s_ji (n_ij comparisons, s_ij = sigmoid(theta_i
- theta_j)); MM updates converge only linearly (Hunter, Ann. Statist. 32(1),
2004). The comparison graph must be connected. A zero-win method scores exactly
0 and is flagged; the rest have an MLE iff their win graph is strongly connected
(Ford, Amer. Math. Monthly 64(8), 1957), else the set that never lost is named.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Iterable, TextIO, Union

import numpy as np

from .errors import RankingError

_MAX_COUNT = int(np.iinfo(np.int64).max)
_TOL = 1e-12  # Newton stops once every |g_i| <= _TOL * (comparisons of method i)
_MAX_ITER = 100  # a guard: chains fit in 4 steps, counts spanning 1e12 in about 30


@dataclass
class PairwiseWins:
    """Square count matrix: wins[i][j] = number of times i was preferred over j."""

    labels: list[str]
    wins: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.wins)
        n = len(self.labels)
        if w.shape != (n, n):
            raise RankingError(f"wins matrix shape {w.shape} does not match {n} labels")
        if len(set(self.labels)) != n:
            raise RankingError("duplicate method labels")
        if not np.issubdtype(w.dtype, np.integer) and not np.all(w == np.rint(w)):
            raise RankingError("win counts must be integers")
        if np.any(w < 0):
            raise RankingError("win counts must be nonnegative")
        if np.any(w >= _MAX_COUNT + 1):  # exact for floats too, where _MAX_COUNT rounds up
            raise RankingError(f"win count exceeds {_MAX_COUNT}")
        if np.any(np.diag(w) != 0):
            raise RankingError("diagonal of the wins matrix must be zero")
        self.wins = w.astype(np.int64)

    @classmethod
    def from_pairs(cls, rows: Iterable[tuple[str, str, int]]) -> "PairwiseWins":
        labels: list[str] = []
        index: dict[str, int] = {}
        triples = []
        for winner, loser, count in rows:
            for name in (winner, loser):
                if name not in index:
                    index[name] = len(labels)
                    labels.append(name)
            triples.append((index[winner], index[loser], int(count)))
        n = len(labels)
        if n == 0:
            raise RankingError("no comparison rows")
        wins = np.zeros((n, n), dtype=np.int64)
        for i, j, c in triples:
            if i == j:
                raise RankingError(f"self-comparison for {labels[i]!r}")
            if c < 0:
                raise RankingError(f"negative count for {labels[i]!r} vs {labels[j]!r}")
            if c > _MAX_COUNT - int(wins[i, j]):
                raise RankingError(f"win count for {labels[i]!r} over {labels[j]!r} exceeds {_MAX_COUNT}")
            wins[i, j] += c
        return cls(labels=labels, wins=wins)


@dataclass
class BtResult:
    labels: list[str]
    scores: np.ndarray
    zero_win: np.ndarray  # bool; True where the MLE is pinned at exactly 0
    iterations: int
    log_strengths: np.ndarray  # theta - max theta; -inf where zero_win

    def ranking(self) -> list[tuple[str, float]]:
        """Methods by descending score, ties in label order.

        Scores below the smallest normal float, 0 included, have lost precision, so their ties are
        ordered by log-strength first. Equal larger scores have log-strengths that differ only by rounding.
        """
        def key(i):
            underflowed = self.scores[i] < np.finfo(np.float64).tiny
            return -self.scores[i], (-self.log_strengths[i] if underflowed else 0.0), self.labels[i]

        order = sorted(range(len(self.labels)), key=key)
        return [(self.labels[i], float(self.scores[i])) for i in order]


def _reach(adj: np.ndarray, start: int) -> np.ndarray:
    """Mask of the nodes reachable from `start` along the edges i -> j where adj[i, j]."""
    seen = frontier = np.arange(adj.shape[0]) == start
    while frontier.any():
        frontier = adj[frontier].any(axis=0) & ~seen
        seen = seen | frontier
    return seen


def bt_fit(data: PairwiseWins) -> BtResult:
    """Fit Bradley-Terry scores by Newton's method; scores sum to 1."""
    n = len(data.labels)
    if n < 2:
        raise RankingError("need at least two methods to rank")
    wins = data.wins.astype(np.float64)
    n_ij = wins + wins.T
    if not _reach(n_ij > 0, 0).all():
        comps = sorted({tuple(np.flatnonzero(_reach(n_ij > 0, i))) for i in range(n)})
        parts = "; ".join("{" + ", ".join(data.labels[i] for i in comp) + "}" for comp in comps)
        raise RankingError(f"comparison graph is disconnected: {parts}")

    live = wins.sum(axis=1) > 0.0
    wins, n_ij = wins[np.ix_(live, live)], n_ij[np.ix_(live, live)]
    # No outsider beat a method that reaches the first, nor did a method the first reaches beat one it does not.
    to_first = _reach(wins.T > 0, 0)
    unbeaten = ~_reach(wins > 0, 0) if to_first.all() else to_first
    if unbeaten.any():
        names = ", ".join(data.labels[i] for i in np.flatnonzero(live)[unbeaten])
        raise RankingError(f"no maximum-likelihood fit: {{{names}}} never lost to the other methods")

    def loglik(theta):
        return -np.sum(wins * np.logaddexp(0.0, theta[None, :] - theta[:, None]))

    pin = np.arange(len(wins)) == np.argmax(n_ij.sum(axis=1))  # fixed theta: its row takes the others' rounding
    theta = np.zeros(len(wins))
    ll = loglik(theta)
    for iteration in range(_MAX_ITER + 1):
        p_win = np.exp(-np.logaddexp(0.0, theta[None, :] - theta[:, None]))  # p_win[i, j] = P(i beats j)
        grad = np.sum(wins - n_ij * p_win, axis=1)  # wins minus expected wins
        if np.all(np.abs(grad) <= _TOL * n_ij.sum(axis=1)):
            log_strengths = np.full(n, -np.inf)
            log_strengths[live] = theta - theta.max()
            scores = np.exp(log_strengths)
            return BtResult(list(data.labels), scores / scores.sum(), zero_win=~live, iterations=iteration,
                            log_strengths=log_strengths)
        weights = n_ij * p_win * p_win.T
        laplacian = np.diag(weights.sum(axis=1)) - weights
        step = np.zeros_like(theta)
        step[~pin] = np.linalg.solve(laplacian[~pin][:, ~pin], grad[~pin])
        # Halve the step while it lowers the likelihood by more than rounding.
        while (trial := loglik(theta + step)) < ll - 1e-12 * abs(ll):
            step /= 2.0
        theta, ll = theta + step, trial
    raise RankingError(f"Newton's method did not converge in {_MAX_ITER} iterations")


# ---------------------------------------------------------------------------
# CSV interfaces: input rows `winner,loser,count`, output rows `method,score`


def read_pairs_csv(source: Union[str, TextIO]) -> PairwiseWins:
    fh = open(source, "r", encoding="utf-8", newline="") if isinstance(source, str) else source
    try:
        rows = []
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or all(not cell.strip() for cell in row):
                continue
            cells = [cell.strip() for cell in row]
            if lineno == 1 and [c.lower() for c in cells] == ["winner", "loser", "count"]:
                continue
            if len(cells) != 3:
                raise RankingError(f"line {lineno}: expected winner,loser,count, got {row!r}")
            try:
                count = int(cells[2])
            except ValueError:
                raise RankingError(f"line {lineno}: bad count {cells[2]!r}") from None
            rows.append((cells[0], cells[1], count))
        return PairwiseWins.from_pairs(rows)
    except UnicodeDecodeError as exc:
        raise RankingError(f"pairs file is not UTF-8 text: {exc}") from None
    finally:
        if isinstance(source, str):
            fh.close()


def scores_csv(result: BtResult) -> str:
    out = io.StringIO()
    out.write("method,score\n")
    for name, score in result.ranking():
        out.write(f"{name},{score:.6g}\n")
    return out.getvalue()
