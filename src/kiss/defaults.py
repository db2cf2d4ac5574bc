"""Default run settings of the randomness battery and the bench suites.

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
