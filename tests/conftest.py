"""One hypothesis profile for the whole suite: derandomized, so every run
draws the same examples and the pass count is stable, with no deadline
and no example database read from or written to `.hypothesis/`.  Each
test's own `max_examples` still applies."""
from hypothesis import settings

settings.register_profile("finkite", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("finkite")
