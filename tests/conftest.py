import pytest
from hypothesis import settings

from mconcave import default_corpus, exchange, matroid_rank_fn, uniform_matroid

# The property tests draw the same examples on every run; each test keeps
# its own max_examples and deadline.
settings.register_profile("repeatable", derandomize=True)
settings.load_profile("repeatable")


@pytest.fixture(scope="session")
def corpus():
    return default_corpus()


@pytest.fixture(scope="session")
def corpus_by_id(corpus):
    return {inst.instance_id: inst for inst in corpus}


@pytest.fixture()
def rank_u24():
    return matroid_rank_fn(uniform_matroid(4, 2))


@pytest.fixture(autouse=True)
def fresh_exchange_caches():
    """No test reads a sweep, multiple-exchange reports or a domain's plan
    that an earlier test left in the one-entry caches of ``exchange``."""
    exchange._sweeps.cache_clear()
    exchange.exc_multi_reports.cache_clear()
    exchange._domain_plan.cache_clear()
