import pytest
from hypothesis import settings
from scipy.spatial import ConvexHull

# every property test draws the same examples on every run, so a tier-1 result
# depends on the code alone; a test's own @settings keeps this unless it overrides it
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


@pytest.fixture
def qhull_hulls(monkeypatch):
    """A list that gains one entry per scipy `ConvexHull` built during the test.

    The count wraps the class itself, so it sees a hull built through any
    module's binding of the name.
    """
    built = []
    init = ConvexHull.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ConvexHull, "__init__", counted)
    return built
