"""One hypothesis profile for the whole suite: derandomized, so every run
draws the same examples and the pass count is stable, with no deadline
and no example database read from or written to `.hypothesis/`.  Each
test's own `max_examples` still applies.

Every map the library builds with `FinMap._derived`, which skips the
range scan, is checked here against what that scan would demand."""
import pytest
from hypothesis import settings

from finkite.finmaps import FinMap

settings.register_profile("finkite", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("finkite")


@pytest.fixture(autouse=True)
def derived_maps_are_valid(monkeypatch):
    """Wrap `FinMap._derived` for the test: its table must be a tuple of
    length dom with int entries in 0..cod-1; the map built is the same."""
    derived = FinMap._derived

    def checked(dom, cod, table):
        assert type(table) is tuple, type(table)
        assert len(table) == dom, (len(table), dom)
        assert all(isinstance(v, int) and 0 <= v < cod for v in table), \
            (table, cod)
        return derived(dom, cod, table)

    monkeypatch.setattr(FinMap, "_derived", staticmethod(checked))
