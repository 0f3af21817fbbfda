"""Guard: every production exact search runs on the ``dp-vectorized`` kernel.

The scalar ``dp`` kernel (``dp_search`` + ``multipath``) is kept only as
the readable Eq. 9 oracle the equivalence suites compare against.  Here its
entry points are made to raise, and every default planning path — the
planner, the plan service and each paper scheme — must still succeed while
the vectorized kernel's search counter moves.
"""

import pytest

import repro.core.dp_search as dp_search
import repro.core.multipath as multipath
from repro.baselines import SCHEME_ORDER, get_scheme
from repro.core.counters import planner_counters
from repro.core.planner import AccParScheme, Planner
from repro.hardware import heterogeneous_array
from repro.models import build_model
from repro.service import PlanRequest, PlanService

# resnet18 has fork/join regions, so the multipath entry point is reachable
MODEL = "resnet18"
BATCH = 32


@pytest.fixture
def scalar_kernel_forbidden(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a production path reached the scalar dp kernel")

    monkeypatch.setattr(dp_search, "search_stages", forbidden)
    monkeypatch.setattr(dp_search, "dp_over_stages", forbidden)
    monkeypatch.setattr(multipath, "parallel_stage_transitions", forbidden)


def vec_searches():
    return planner_counters.snapshot().get("vec_searches", 0)


def assert_vectorized(plan_once):
    before = vec_searches()
    plan_once()
    assert vec_searches() > before


@pytest.mark.usefixtures("scalar_kernel_forbidden")
class TestNoProductionPathReachesScalarDp:
    def test_planner_default_scheme(self):
        planner = Planner(heterogeneous_array(2, 2), AccParScheme())
        assert_vectorized(lambda: planner.plan(build_model(MODEL), BATCH))

    def test_plan_service_default_request(self):
        request = PlanRequest(model=MODEL, array=heterogeneous_array(2, 2),
                              batch=BATCH)
        with PlanService(workers=1) as service:
            assert_vectorized(lambda: service.plan(request))

    @pytest.mark.parametrize("scheme", SCHEME_ORDER)
    def test_paper_schemes(self, scheme):
        planner = Planner(heterogeneous_array(2, 2), get_scheme(scheme))
        assert_vectorized(lambda: planner.plan(build_model(MODEL), BATCH))

    def test_fixed_type_backend(self):
        scheme = AccParScheme(backend="fixed-type")
        planner = Planner(heterogeneous_array(2, 2), scheme)
        assert_vectorized(lambda: planner.plan(build_model(MODEL), BATCH))

    def test_the_oracle_is_what_is_forbidden(self):
        """Sanity check of the guard itself: ``dp`` does hit the patch."""
        planner = Planner(heterogeneous_array(2, 2), AccParScheme(backend="dp"))
        with pytest.raises(AssertionError, match="scalar dp kernel"):
            planner.plan(build_model(MODEL), BATCH)
