import pytest

from slidechrom import chromatic


@pytest.fixture
def cold_graph_memos():
    """Empty chromatic.py's per-graph verdict memo, so a test that checks
    a theorem per path computes every graph itself, whatever ran before."""
    chromatic._verdict.cache_clear()
