"""Time one fresh process's set-up and print it in seconds.

Set-up is what every CLI invocation pays before any work: importing
``mementoset``, loading the bundled registry, constructing the client
and the pipeline. Usage: ``python3 setup_probe.py OUT_DIR``.
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

started = time.perf_counter()
import mementoset  # noqa: E402
from mementoset.pipeline import DiscoveryPipeline, RunConfig  # noqa: E402


class Offline:
    """A transport that is never called: set-up makes no request."""

    def request(self, method, uri, headers=None):
        raise AssertionError("set-up made a request")


registry = mementoset.default_registry()
client = mementoset.ArchiveClient(
    registry, mementoset.FetchPolicy(min_request_interval=0.0), Offline()
)
pipeline = DiscoveryPipeline(RunConfig(out_dir=Path(sys.argv[1])), transport=Offline())
print(time.perf_counter() - started)
