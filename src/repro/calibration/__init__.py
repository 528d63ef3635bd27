"""Paper-calibrated response curves and models.

The paper's analysis is explicitly *measurement-driven* (its Section 3):
times and accuracies are measured on EC2, then fed to analytical models.
Lacking the authors' testbed, this subpackage plays the role of the
measurement phase: it encodes the measured anchors the paper publishes
(Figures 3-8, Section 4 narrative numbers, Table 3) as response curves,
from which the same downstream models and optimisations run unchanged.

Every constant here cites the paper anchor it comes from; DESIGN.md §6
tabulates them.  Nothing downstream of this subpackage knows whether a
number was measured on a K80 or read off the published figure — which is
precisely the substitution contract of this reproduction.
"""

from typing import Callable, NamedTuple

from repro.calibration.accuracy_model import AccuracyModel, AccuracyPair
from repro.calibration.caffenet import (
    caffenet_accuracy_model,
    caffenet_time_model,
)
from repro.calibration.curves import PiecewiseCurve
from repro.calibration.googlenet import (
    googlenet_accuracy_model,
    googlenet_time_model,
)
from repro.pruning.schedule import (
    algorithm1_variant_set,
    caffenet_variant_set,
    googlenet_variant_set,
)


class ModelRow(NamedTuple):
    """A model's factories: time and accuracy models, the degrees of
    pruning ``repro plan`` sweeps and those ``repro allocate`` searches."""

    time_model: Callable
    accuracy_model: Callable
    plan_degrees: Callable
    allocate_degrees: Callable


#: model name -> :class:`ModelRow`: the one list of calibrated models
#: that every ``--model`` flag and the API's ``model`` field read
MODELS = {
    "caffenet": ModelRow(
        caffenet_time_model,
        caffenet_accuracy_model,
        caffenet_variant_set,
        algorithm1_variant_set,
    ),
    "googlenet": ModelRow(
        googlenet_time_model,
        googlenet_accuracy_model,
        googlenet_variant_set,
        googlenet_variant_set,
    ),
}

__all__ = [
    "MODELS",
    "AccuracyModel",
    "ModelRow",
    "AccuracyPair",
    "PiecewiseCurve",
    "caffenet_accuracy_model",
    "caffenet_time_model",
    "googlenet_accuracy_model",
    "googlenet_time_model",
]
