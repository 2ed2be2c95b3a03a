import pytest
from scipy.spatial import ConvexHull


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
