import pytest

from pregols import Svd


@pytest.fixture
def w_builds(monkeypatch):
    """The shapes of the ``W`` that factored draws build, in order.

    Each builder a draw gives ``Svd.from_factors`` is wrapped to record
    its shape when it runs.
    """
    builds = []
    real = Svd.from_factors.__func__

    def counted(cls, a, u, s):
        if isinstance(a, tuple):
            shape, build = a
            a = (shape, lambda: builds.append(shape) or build())
        return real(cls, a, u, s)

    monkeypatch.setattr(Svd, "from_factors", classmethod(counted))
    return builds
