import os
from pathlib import Path

import hypothesis
import pytest

import albertson

hypothesis.settings.register_profile(
    "deterministic", derandomize=True, max_examples=60, deadline=None)
hypothesis.settings.load_profile("deterministic")


@pytest.fixture
def child_env() -> dict:
    """Environment for a child interpreter that imports the albertson under test."""
    src = str(Path(albertson.__file__).parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
