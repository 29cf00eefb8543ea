"""Reference computations the tests compare the package against."""

import numpy as np


def pearson_corr(a, b) -> float:
    """Sample Pearson correlation of two equal-length vectors, by its formula."""
    x = np.asarray(a, dtype=np.float64).ravel()
    y = np.asarray(b, dtype=np.float64).ravel()
    xc = x - x.mean()
    yc = y - y.mean()
    r = float((xc @ yc) / np.sqrt((xc @ xc) * (yc @ yc)))
    return max(-1.0, min(1.0, r))
