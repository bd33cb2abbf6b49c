import os
import shutil
import tempfile

# Keep table caches out of the user cache directory and out of other runs.
_CACHE_DIR = tempfile.mkdtemp(prefix="nchopf-test-cache-")
os.environ["NCHOPF_CACHE_DIR"] = _CACHE_DIR


def pytest_sessionfinish(session, exitstatus):
    shutil.rmtree(_CACHE_DIR, ignore_errors=True)
