"""Bradley-Terry strength fitting from pairwise win counts.

Uses the monotone minorization-maximization update

    p_i <- W_i / sum_{j != i} n_ij / (p_i + p_j)

with W_i the total wins of method i and n_ij the number of i-vs-j comparisons,
renormalizing to sum(p) = 1 after every sweep. The comparison graph must be
connected for the maximum likelihood to be identifiable; a method with zero
wins gets score exactly 0 and is flagged.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Iterable, TextIO, Union

import numpy as np

from .errors import RankingError

_MAX_COUNT = int(np.iinfo(np.int64).max)


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
        if not np.issubdtype(w.dtype, np.integer):
            if not np.all(w == np.rint(w)):
                raise RankingError("win counts must be integers")
            w = w.astype(np.int64)
        if np.any(w < 0):
            raise RankingError("win counts must be nonnegative")
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

    def ranking(self) -> list[tuple[str, float]]:
        order = sorted(range(len(self.labels)), key=lambda i: (-self.scores[i], self.labels[i]))
        return [(self.labels[i], float(self.scores[i])) for i in order]


def _components(n_ij: np.ndarray) -> list[list[int]]:
    n = n_ij.shape[0]
    seen = [False] * n
    comps = []
    for s in range(n):
        if seen[s]:
            continue
        comp = [s]
        seen[s] = True
        stack = [s]
        while stack:
            u = stack.pop()
            for v in range(n):
                if not seen[v] and n_ij[u, v] > 0:
                    seen[v] = True
                    comp.append(v)
                    stack.append(v)
        comps.append(sorted(comp))
    return comps


def bt_fit(data: PairwiseWins, tol: float = 1e-10, max_iter: int = 10000) -> BtResult:
    """Fit Bradley-Terry scores by MM iteration; scores sum to 1."""
    n = len(data.labels)
    if n < 2:
        raise RankingError("need at least two methods to rank")
    wins = data.wins.astype(np.float64)
    n_ij = wins + wins.T
    comps = _components(n_ij)
    if len(comps) > 1:
        parts = "; ".join("{" + ", ".join(data.labels[i] for i in comp) + "}" for comp in comps)
        raise RankingError(f"comparison graph is disconnected: {parts}")

    total_wins = wins.sum(axis=1)
    zero_win = total_wins == 0.0

    p = np.full(n, 1.0 / n)
    for sweep in range(1, max_iter + 1):
        pair_sums = p[:, None] + p[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.where(n_ij > 0, n_ij / pair_sums, 0.0)
        denom = z.sum(axis=1)
        p_new = np.where(denom > 0, total_wins / np.where(denom > 0, denom, 1.0), 0.0)
        p_new /= p_new.sum()
        delta = float(np.max(np.abs(p_new - p)))
        p = p_new
        if delta <= tol:
            return BtResult(labels=list(data.labels), scores=p, zero_win=zero_win, iterations=sweep)
    raise RankingError(
        f"MM iteration did not converge within {max_iter} sweeps (last max|dp| = {delta:.3e}, "
        f"last iterate {np.array2string(p, precision=6)})"
    )


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
