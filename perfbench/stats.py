"""Percentiles as the benchmark reports them."""

# Fixed ladder for tails chosen per sample: the highest with 10 samples beyond it.
PCT_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(sorted_values, pct):
    """Linear-interpolated percentile of an ascending list (0.0 if empty)."""
    if not sorted_values:
        return 0.0
    pos = (len(sorted_values) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def beyond(n, pct):
    """Samples strictly above the ``pct`` percentile of ``n`` samples."""
    return max(n - 1 - int((n - 1) * pct / 100.0), 0)


def ladder_tail(values):
    """(percentile, value) for the highest ladder percentile with >= 10 samples beyond."""
    s = sorted(values)
    for pct in PCT_LADDER:
        if beyond(len(s), pct) >= 10:
            return pct, percentile(s, pct)
    return 50.0, percentile(s, 50.0)
