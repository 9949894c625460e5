import pytest

from hetcache import lp_core
from hetcache.model import (
    Budget,
    FixedMemories,
    ProblemInstance,
    make_rate_profile,
)


@pytest.fixture
def figure_profile():
    """The three-user rate profile used throughout the worked examples."""
    return make_rate_profile([0.5, 0.7, 1.0])


@pytest.fixture
def example_one():
    """Three users with fixed caches m=[0.1, 0.2, 0.6] and r=[0.2, 0.3, 0.8]."""
    return ProblemInstance(
        K=3,
        N=3,
        rates=make_rate_profile([0.2, 0.3, 0.8]),
        constraint=FixedMemories(m=(0.1, 0.2, 0.6)),
    )


def split_rows(split):
    """A split of the baselines' form (entry l - 1 holds the shares of layer
    l of users l..K) as a K x K matrix: row k - 1 holds user k's shares of
    layers 1..K, zero above k."""
    K = len(split)
    return [tuple(split[l - 1][k - l] if l <= k else 0.0 for l in range(1, K + 1))
            for k in range(1, K + 1)]


def users_mask(*users):
    """Bitmask of the given users, bit k-1 for user k, as the package keys sets."""
    return sum(1 << (u - 1) for u in users)


def budget_instance(rates, m_tot, N=None, q=2):
    profile = make_rate_profile(rates)
    return ProblemInstance(
        K=profile.K,
        N=N if N is not None else profile.K,
        rates=profile,
        constraint=Budget(m_tot=m_tot),
        q=q,
    )


@pytest.fixture
def budget_instance_factory():
    return budget_instance


@pytest.fixture
def own_examples(monkeypatch):
    """Derandomized Hypothesis draws that follow from the test's own code.

    Hypothesis also draws literals that it reads from every loaded module
    outside site-packages (its local-constant pool), so an edit of a
    literal in the package, or another test module loaded first, would
    move the examples.  The pool is emptied for the test, and the cache of
    constants filtered from it is cleared on both sides.  The pool is
    private to Hypothesis: a release without it fails here.
    """
    from hypothesis.internal.conjecture import providers
    from hypothesis.internal.constants_ast import Constants

    monkeypatch.setattr(providers, "_get_local_constants", Constants)
    providers.CONSTANTS_CACHE.cache.clear()
    yield
    providers.CONSTANTS_CACHE.cache.clear()


@pytest.fixture
def starts(monkeypatch):
    """A list that records, for every start the solver is handed, whether
    it was taken (True) or dropped for a cold solve (False)."""
    seen = []
    start_from = lp_core._Tableau.start_from

    def recorded(self, start):
        taken = False
        try:
            start_from(self, start)
            taken = True
        finally:
            if start is not None:
                seen.append(taken)

    monkeypatch.setattr(lp_core._Tableau, "start_from", recorded)
    return seen
