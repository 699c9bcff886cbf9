"""Output validators for the hypersum benchmark.

Every validator returns ``None`` when the output is correct and a short
failure kind otherwise. None of them raises on bad output, so a run counts
failures instead of stopping at the first one.
"""

import csv
import io
import json
import math
import re

TRACEBACK = "traceback"
EXIT_CODE = "exit_code"
INVALID_JSON = "invalid_json"
INVALID_CSV = "invalid_csv"
NONFINITE_OK = "nonfinite_ok"
WRONG_VALUE = "wrong_value"
ESTIMATE_MISS = "estimate_miss"
TYPED_ERROR = "typed_error"
SLOW_CONVERGENCE = "slow_convergence"
NON_CONVERGENT = "non_convergent"
MISSING_ERROR = "missing_error"
CHI2 = "chi2"
ZSCORE = "zscore"
CONSERVATION = "conservation"

# Exit codes the CLI documents for a typed error: 2 domain or convergence
# rejection, 3 numerical failure.
TYPED_EXIT_CODES = (2, 3)

_IDENT = re.compile(r"^[a-z_][a-z0-9_]*$")


def rel_close(a, b, rtol, atol=0.0):
    """``None`` if ``a`` is finite and within ``atol + rtol*max(|a|,|b|)`` of ``b``."""
    if not isinstance(a, (int, float)) or isinstance(a, bool):
        return WRONG_VALUE
    if not math.isfinite(a):
        return NONFINITE_OK
    if abs(a - b) > atol + rtol * max(abs(a), abs(b)):
        return WRONG_VALUE
    return None


def _reject_constant(token):
    raise ValueError("non-standard JSON constant %s" % token)


def parse_json_records(text):
    """Newline-delimited JSON objects, or ``(None, INVALID_JSON)``.

    ``NaN`` and ``Infinity`` are not JSON, so they are rejected like any
    other token that is not (Python's parser would accept them).
    """
    records = []
    for line in text.splitlines():
        if not line.strip():
            continue
        try:
            obj = json.loads(line, parse_constant=_reject_constant)
        except ValueError:
            return None, INVALID_JSON
        if not isinstance(obj, dict):
            return None, INVALID_JSON
        records.append(obj)
    if not records:
        return None, INVALID_JSON
    return records, None


def _csv_cell(cell):
    if cell in ("true", "false"):
        return cell == "true"
    try:
        return int(cell)
    except ValueError:
        pass
    try:
        return float(cell)
    except ValueError:
        return cell


def parse_csv_records(text):
    """Rows of a CSV stream with one identifier header, or ``(None, INVALID_CSV)``.

    The header must name a ``status`` column and every row must have as many
    cells as the header; a JSON line inside the stream breaks either rule.
    """
    rows = list(csv.reader(io.StringIO(text)))
    rows = [r for r in rows if r]
    if len(rows) < 2:
        return None, INVALID_CSV
    header = rows[0]
    if not all(_IDENT.match(h) for h in header) or "status" not in header:
        return None, INVALID_CSV
    records = []
    for row in rows[1:]:
        if len(row) != len(header):
            return None, INVALID_CSV
        records.append({h: _csv_cell(c) for h, c in zip(header, row)})
    return records, None


def _nonfinite_field(record):
    for v in record.values():
        if isinstance(v, float) and not math.isfinite(v):
            return True
    return False


def check_cli(stdout, stderr, returncode, fmt, expect):
    """Validate one ``python -m hypersum`` run.

    ``expect`` is either ``{"error": True}`` (a typed error is the correct
    answer) or ``{"records": [...], "rtol": r}``: one dict per expected
    stdout record, mapping a field to its reference value. Numeric fields
    must match within ``rtol``; other fields must be equal. With
    ``"error_ok": True`` a typed error is accepted in place of the records.
    """
    if "Traceback (most recent call last)" in stderr:
        return TRACEBACK
    if returncode not in (0,) + TYPED_EXIT_CODES + (4,):
        return EXIT_CODE
    parse = parse_csv_records if fmt == "csv" else parse_json_records
    records, bad = parse(stdout)
    if bad:
        return bad
    for r in records:
        if r.get("status") == "ok" and _nonfinite_field(r):
            return NONFINITE_OK
    if returncode in TYPED_EXIT_CODES:
        if not (expect.get("error") or expect.get("error_ok")):
            return TYPED_ERROR
        if all(r.get("status") in (None, "ok") for r in records):
            return INVALID_JSON if fmt == "json" else INVALID_CSV
        return None
    if expect.get("error"):
        return MISSING_ERROR
    if returncode != 0 or any(r.get("status") != "ok" for r in records):
        return EXIT_CODE
    want = expect["records"]
    if len(records) != len(want):
        return WRONG_VALUE
    rtol = expect.get("rtol", 0.0)
    for got, ref in zip(records, want):
        for key, v in ref.items():
            if key not in got:
                return WRONG_VALUE
            if isinstance(v, float) or (isinstance(v, int) and not isinstance(v, bool)
                                        and isinstance(got[key], float)):
                bad = rel_close(got[key], v, rtol)
                if bad:
                    return bad
            elif got[key] != v:
                return WRONG_VALUE
    return None


def check_conservation(counts, censored, replicates, cap):
    """Totals plus censored replicates must equal the replicate count, and
    every uncensored total must lie in ``[1, cap)``."""
    if any(not 1 <= k < cap or v < 0 for k, v in counts.items()):
        return CONSERVATION
    if sum(counts.values()) + censored != replicates:
        return CONSERVATION
    return None


def check_gof(chi_square, threshold, max_abs_z, z_limit):
    """Chi-square below ``threshold`` and every cell |z| within ``z_limit``."""
    if not math.isfinite(chi_square) or chi_square >= threshold:
        return CHI2
    if not math.isfinite(max_abs_z) or max_abs_z > z_limit:
        return ZSCORE
    return None


def check_z(observed, expected, sd, z_limit):
    """``|observed - expected| / sd`` within ``z_limit``."""
    if not math.isfinite(observed) or abs(observed - expected) > z_limit * sd:
        return ZSCORE
    return None
