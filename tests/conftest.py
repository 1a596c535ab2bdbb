import pytest

from slidechrom import chromatic


@pytest.fixture
def cold_graph_memos():
    """Empty chromatic.py's per-graph memos, so a test that checks a
    theorem per path computes every graph itself, whatever ran before."""
    chromatic._fundamental_dp.cache_clear()
    chromatic._VERDICTS.clear()
