"""Shared fixtures: the four-dimension actuator clamping chain used throughout, and a memory probe."""

import json
import tracemalloc
from pathlib import Path

import pytest

from tolchain import DimensionSpec, FunctionalCondition, ToleranceChain, montecarlo

ACTUATOR_DOC = {
    "name": "actuator-clamping",
    "dimensions": [
        {"name": "a1", "nominal": 25.3, "upper_dev": 0.5, "lower_dev": 0.0, "coefficient": 1.0},
        {"name": "a2", "nominal": 9.0, "upper_dev": 0.1, "lower_dev": -0.1, "coefficient": -1.0},
        {"name": "a3", "nominal": 4.0, "upper_dev": 0.2, "lower_dev": -0.2, "coefficient": -1.0},
        {"name": "a7", "nominal": 2.0, "upper_dev": 0.0, "lower_dev": -0.06, "coefficient": -1.0},
    ],
    "condition": {"name": "Ja", "min": 10.0, "max": 11.16},
}


def make_actuator_chain(bounds=(10.0, 11.16)) -> ToleranceChain:
    condition = None
    if bounds is not None:
        condition = FunctionalCondition("Ja", bounds[0], bounds[1])
    return ToleranceChain(
        name="actuator-clamping",
        dimensions=(
            DimensionSpec("a1", 25.3, 0.5, 0.0, 1.0),
            DimensionSpec("a2", 9.0, 0.1, -0.1, -1.0),
            DimensionSpec("a3", 4.0, 0.2, -0.2, -1.0),
            DimensionSpec("a7", 2.0, 0.0, -0.06, -1.0),
        ),
        condition=condition,
    )


def traced_peak(run):
    """Peak bytes that tracemalloc sees while ``run()`` executes."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def counted_transforms(monkeypatch) -> list:
    """The shape of the uniforms at each later call of ``montecarlo._to_normal``, which still transforms them.
    ``_bracket`` is built first, so that its own transform is not counted."""
    montecarlo._bracket()
    shapes, transform = [], montecarlo._to_normal

    def counted(uniforms, *args):
        shapes.append(uniforms.shape)
        return transform(uniforms, *args)

    monkeypatch.setattr(montecarlo, "_to_normal", counted)
    return shapes


@pytest.fixture
def actuator_chain() -> ToleranceChain:
    return make_actuator_chain()


@pytest.fixture
def actuator_text() -> str:
    return json.dumps(ACTUATOR_DOC, indent=2) + "\n"


@pytest.fixture
def actuator_file(tmp_path: Path, actuator_text: str) -> Path:
    path = tmp_path / "actuator.json"
    path.write_text(actuator_text, encoding="utf-8")
    return path
