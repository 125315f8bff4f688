import os

from hypothesis import settings

# CI runs select the "ci" profile: derandomized, with no example database, so
# that a result never depends on examples saved by an earlier run.
settings.register_profile("ci", derandomize=True, database=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
