"""Property tests run a fixed, bounded set of examples, so every run of the
suite checks the same cases and leaves no example database behind."""

from hypothesis import settings

settings.register_profile(
    "tokenpool", derandomize=True, database=None, max_examples=200, deadline=None
)
settings.load_profile("tokenpool")
