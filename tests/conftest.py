"""Shared test settings: hypothesis draws a small, fixed set of examples, so
the suite is deterministic and stays fast."""

from hypothesis import settings

settings.register_profile("genpi", derandomize=True, max_examples=30, deadline=None, database=None)
settings.load_profile("genpi")
