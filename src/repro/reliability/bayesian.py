"""Bayesian estimators of per-cell unastuteness with conservative bounds.

The ReAsDL model the paper builds on produces *conservative* reliability
claims: instead of plugging in the empirical failure rate of each cell, it
maintains a Beta posterior over the cell's unastuteness and reports an upper
credible bound.  Cells with little or no evidence therefore contribute a
pessimistic (large) unastuteness, which is exactly the behaviour a safety
argument needs.

Bounds are Beta quantiles from :func:`scipy.special.betaincinv`, which is what
``scipy.stats.beta.ppf`` evaluates, without importing ``scipy.stats`` (~1 s).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np
from scipy.special import betaincinv

from ..exceptions import ReliabilityError
from .cells import CellEvidenceTable

# at and below this confidence the two one-sided quantiles meet or cross
# (``betaincinv`` is not strictly monotone at machine precision near 0.5), so
# the lower bound is capped at the upper one to keep ``lower <= upper``
_CROSSOVER_CONFIDENCE = 0.5 + 1e-9


def _check_confidence(confidence: float) -> None:
    if not 0.0 < confidence < 1.0:
        raise ReliabilityError("confidence must be in (0, 1)")


def _beta_quantiles(alpha, beta, q: float) -> np.ndarray:
    values = betaincinv(alpha, beta, q)
    # the root finding gives up (NaN) for q far in the tail, around 1e-200
    if np.isnan(values).any():
        raise ReliabilityError(f"Beta quantile at {q!r} did not converge")
    return values


def beta_upper_bounds(alpha, beta, confidence: float) -> np.ndarray:
    """Upper credible bounds of ``Beta(alpha, beta)`` posteriors, elementwise."""
    _check_confidence(confidence)
    return _beta_quantiles(alpha, beta, confidence)


def beta_lower_bounds(alpha, beta, confidence: float) -> np.ndarray:
    """Lower credible bounds of ``Beta(alpha, beta)`` posteriors, elementwise.

    Never above the matching upper bound: for ``confidence`` up to just past
    0.5 the result is capped at :func:`beta_upper_bounds`.
    """
    _check_confidence(confidence)
    lower = _beta_quantiles(alpha, beta, 1.0 - confidence)
    if confidence <= _CROSSOVER_CONFIDENCE:
        lower = np.minimum(lower, _beta_quantiles(alpha, beta, confidence))
    return lower


@dataclass
class BetaPrior:
    """Beta prior over a cell's unastuteness.

    The default ``Beta(1, 9)`` encodes a weak prior belief that roughly 10 %
    of inputs in an arbitrary cell could be mishandled — deliberately
    pessimistic for unexplored cells, quickly overridden by evidence.
    """

    alpha: float = 1.0
    beta: float = 9.0

    def __post_init__(self) -> None:
        if self.alpha <= 0 or self.beta <= 0:
            raise ReliabilityError("Beta prior parameters must be positive")

    @property
    def mean(self) -> float:
        return self.alpha / (self.alpha + self.beta)


@dataclass
class CellPosterior:
    """Beta posterior over one cell's unastuteness."""

    cell_id: int
    alpha: float
    beta: float

    @property
    def mean(self) -> float:
        return self.alpha / (self.alpha + self.beta)

    def upper_bound(self, confidence: float = 0.95) -> float:
        """Upper credible bound at the given one-sided confidence level."""
        return float(beta_upper_bounds(self.alpha, self.beta, confidence))

    def lower_bound(self, confidence: float = 0.95) -> float:
        """Lower credible bound at the given one-sided confidence level.

        Capped at :meth:`upper_bound`, so ``lower <= upper`` at any
        confidence (the two quantiles cross below 0.5).
        """
        return float(beta_lower_bounds(self.alpha, self.beta, confidence))


class BayesianCellModel:
    """Maps cell evidence to Beta posteriors over unastuteness.

    Parameters
    ----------
    prior:
        Prior applied to every cell.
    unexplored_pessimistic:
        When ``True``, cells with zero trials keep the raw prior (pessimistic
        mean ~ ``prior.mean``); when ``False`` they are treated as perfectly
        astute (mean 0), which is only appropriate for non-safety analyses.
    """

    def __init__(self, prior: BetaPrior | None = None, unexplored_pessimistic: bool = True) -> None:
        self.prior = prior if prior is not None else BetaPrior()
        self.unexplored_pessimistic = unexplored_pessimistic

    def posterior_for(self, trials: int, failures: int, cell_id: int = -1) -> CellPosterior:
        """Posterior after observing ``failures`` in ``trials`` Bernoulli trials."""
        if trials < 0 or failures < 0 or failures > trials:
            raise ReliabilityError("invalid evidence: need 0 <= failures <= trials")
        return CellPosterior(
            cell_id=cell_id,
            alpha=self.prior.alpha + failures,
            beta=self.prior.beta + (trials - failures),
        )

    def posterior_means(self, table: CellEvidenceTable) -> np.ndarray:
        """Posterior mean unastuteness for every cell of the table's partition."""
        return self._vector(table, bound=None)

    def posterior_upper_bounds(
        self, table: CellEvidenceTable, confidence: float = 0.95
    ) -> np.ndarray:
        """Conservative (upper credible bound) unastuteness for every cell."""
        return self._vector(table, bound=confidence)

    def posterior_arrays(
        self, table: CellEvidenceTable
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(cell_ids, alpha, beta)`` of the posteriors of the table's cells.

        Vectorised :meth:`posterior_for` over every cell present in the table
        (cells with zero trials included); absent cells are not listed.
        """
        cell_ids, trials, failures = table.evidence_arrays()
        if np.any(failures < 0) or np.any(failures > trials):
            raise ReliabilityError("invalid evidence: need 0 <= failures <= trials")
        alpha = self.prior.alpha + failures
        beta = self.prior.beta + (trials - failures)
        return cell_ids, alpha, beta

    def _vector(self, table: CellEvidenceTable, bound: float | None) -> np.ndarray:
        cell_ids, alpha, beta = self.posterior_arrays(table)
        if self.unexplored_pessimistic:
            default_alpha, default_beta = self.prior.alpha, self.prior.beta
        else:
            default_alpha, default_beta = 1e-3, 1e3
        # the last entry is the posterior shared by every cell absent from the table
        alpha = np.append(alpha, default_alpha)
        beta = np.append(beta, default_beta)
        if bound is None:
            values = alpha / (alpha + beta)
        else:
            values = beta_upper_bounds(alpha, beta, bound)
        vector = np.full(table.partition.num_cells, values[-1])
        vector[cell_ids] = values[:-1]
        return vector


__all__ = ["BetaPrior", "CellPosterior", "BayesianCellModel"]
