import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# Property-test depth: "local" unless ``--hypothesis-profile=ci`` is given,
# which the Hypothesis plugin loads after this file.
settings.register_profile("local", max_examples=300, deadline=None)
settings.register_profile("ci", max_examples=2000, deadline=None)
settings.load_profile("local")

from mockserver import MockArchiveServer  # noqa: E402

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def registry():
    from mementoset import default_registry

    return default_registry()


@pytest.fixture()
def corpus_cadence(monkeypatch):
    """Method 1 checkpoints every 2 candidates, so a run over the six
    candidates of ``test_pipeline.build_fixture_corpus`` saves mid-stage."""
    import mementoset.pipeline

    monkeypatch.setattr(mementoset.pipeline, "CHECKPOINT_EVERY", 2)


@pytest.fixture()
def mock_server():
    server = MockArchiveServer()
    base = server.start()
    server.base_url = base
    yield server
    server.stop()


def data(name: str) -> bytes:
    return (DATA_DIR / name).read_bytes()


def data_text(name: str) -> str:
    return (DATA_DIR / name).read_text("utf-8")


@pytest.fixture(scope="session")
def cnn_timemap() -> bytes:
    """Internet Archive TimeMap excerpt for cnn.com (3 memento entries)."""
    return data("ia_cnn_timemap.link")


@pytest.fixture(scope="session")
def perma_timemap() -> bytes:
    """Direct perma.cc TimeMap for whitehouse.gov (57 mementos)."""
    return data("perma_whitehouse_timemap.link")


@pytest.fixture(scope="session")
def fom_full_compact() -> str:
    """64-memento compact TimeMap of the futureofmusic positions page."""
    return data_text("fom_positions_full.compact")


@pytest.fixture(scope="session")
def fom_yearly_compact() -> str:
    """The same TimeMap reduced to one memento per archive per year."""
    return data_text("fom_positions_yearly.compact")


@pytest.fixture(scope="session")
def inria_timemap() -> bytes:
    """Aggregated TimeMap for inria.fr: 13 mementos across 9 archives."""
    return data("agg_inria_timemap.link")


@pytest.fixture(scope="session")
def raw_w3_html() -> bytes:
    return data("raw_w3_20041020.html")
