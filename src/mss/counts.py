"""Published-value count formulas for this scheme family and prior designs.

All formulas assume a uniform threshold t across the k secrets.  The "os"
rows are the two variant families of this package (per-secret constants vs
one shared constant); the others are earlier multi-stage designs included
for comparison.
"""

from __future__ import annotations

SCHEME_LABELS = ("hd", "lh", "sm", "pe", "os12", "os34")

#: Parameter tuples (t, k, n) used by the reference comparison.
FIGURE1_TUPLES = ((3, 4, 7), (6, 7, 10), (8, 9, 12), (11, 12, 14), (12, 13, 14))


def public_value_counts(t: int, k: int, n: int) -> dict[str, int]:
    """Number of published values per scheme at uniform threshold t."""
    if not 1 <= t <= n:
        raise ValueError("need 1 <= t <= n")
    if k < 1:
        raise ValueError("need at least one secret")
    return {
        "hd": k * n,
        "lh": k * (n - t),
        "sm": k * (n - t + 2) + 1,
        "pe": 2 * (n + k) + 1,
        "os12": k * (n - t + 6) + (n + 1),
        "os34": k * (n + 4) + (n + 2),
    }


def counts_csv() -> str:
    """CSV table of counts, one row per tuple of ``FIGURE1_TUPLES``."""
    lines = ["t,k,n," + ",".join(SCHEME_LABELS)]
    for t, k, n in FIGURE1_TUPLES:
        counts = public_value_counts(t, k, n)
        lines.append(
            f"{t},{k},{n}," + ",".join(str(counts[label]) for label in SCHEME_LABELS)
        )
    return "\n".join(lines) + "\n"
