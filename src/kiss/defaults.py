"""Default run settings of the randomness battery and the bench suites,
and the one table renderer both their reports print.

They live apart from ``kiss.randomness`` and ``kiss.bench`` so that the
command line can name them in its help without loading NumPy or the
TLS stack, which only those two subcommands run.
"""

# the chain inputs of `kiss randomness` and of the bench suites' chains;
# any 32-byte pair works, these keep default runs reproducible
DEMO_SEED = bytes(range(32))
DEMO_ROOT = bytes(range(32, 64))

# kiss.randomness: significance level, trials per battery, bits per trial
DEFAULT_ALPHA = 0.01
DEFAULT_TRIALS = 100
DEFAULT_STREAM_BITS = 1_000_000

# message sizes of `kiss bench --suite primitives` when --sizes is not
# given; the command line reads it, kiss.bench itself does not
DEFAULT_SIZES = (64, 512, 1500, 16384)


def markdown_table(rows, left) -> str:
    """``rows`` as a markdown table, the first row its header: each column
    as wide as its widest cell, aligned left if its header is in ``left``
    and right otherwise, with a ``|---|`` rule under the header."""
    widths = [max(map(len, column)) for column in zip(*rows)]
    lines = [
        "| " + " | ".join(
            text.ljust(w) if head in left else text.rjust(w)
            for text, w, head in zip(row, widths, rows[0])
        ) + " |"
        for row in rows
    ]
    lines.insert(1, "|" + "|".join("-" * (w + 2) for w in widths) + "|")
    return "\n".join(lines) + "\n"
