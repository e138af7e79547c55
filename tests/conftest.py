import pytest

from bosondos import cpa
from bosondos.cpa import SolverError


@pytest.fixture
def fail_at(monkeypatch):
    """Make the sweep step to a given omega fail with SolverError("injected"),
    and ``solve_p`` there too, which is how a sweep reaches its first
    point."""

    def inject(omega):
        march, solve = cpa._march, cpa.solve_p

        def failing_march(z_from, p_from, slope, z_to, *args, **kwargs):
            if z_to.imag == omega:
                raise SolverError("injected")
            return march(z_from, p_from, slope, z_to, *args, **kwargs)

        def failing_solve(z, *args):
            if z.imag == omega:
                raise SolverError("injected")
            return solve(z, *args)

        monkeypatch.setattr(cpa, "_march", failing_march)
        monkeypatch.setattr(cpa, "solve_p", failing_solve)

    return inject
