"""Linear regression for the Figure 10 colors-vs-runtime scatter."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LinearFit:
    """Least-squares line ``y = slope * x + intercept``.

    ``rvalue`` is Pearson's correlation — Figure 10's claim is that it is
    positive for every configuration (weakly so when the critical path is a
    small fraction of total work).
    """

    slope: float
    intercept: float
    rvalue: float
    pvalue: float
    stderr: float

    def predict(self, x) -> np.ndarray:
        """Evaluate the fitted line."""
        return self.slope * np.asarray(x, dtype=np.float64) + self.intercept


def linear_fit(x, y) -> LinearFit:
    """Fit a line through ``(x, y)`` samples (at least two distinct x)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if len(x) != len(y) or len(x) < 2:
        raise ValueError("need at least two aligned samples")
    if np.allclose(x, x[0]):
        raise ValueError("x values are all identical; the slope is undefined")
    # Imported here so `import repro` does not load scipy.
    from scipy import stats

    res = stats.linregress(x, y)
    return LinearFit(
        slope=float(res.slope),
        intercept=float(res.intercept),
        rvalue=float(res.rvalue),
        pvalue=float(res.pvalue),
        stderr=float(res.stderr),
    )
