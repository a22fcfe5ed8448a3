"""The calibration tool still reproduces the frozen constants."""

import importlib.util
from pathlib import Path

from frozen_constants import BERNSTEIN_RATIO, FAVARD_RATIO, FILTERED_RATIO

TOOL = Path(__file__).resolve().parents[1] / "tools" / "calibrate_constants.py"


def test_calibration_reproduces_frozen_constants():
    spec = importlib.util.spec_from_file_location("calibrate_constants", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    maxima = tool.calibrate()
    assert tuple(round(x, 6) for x in maxima) == (
        BERNSTEIN_RATIO, FAVARD_RATIO, FILTERED_RATIO)
