"""Hardware substrate: topologies, calibration snapshots, crosstalk
ground truth, the synthetic IBM-style devices used by the paper, and
multi-device fleets."""

from .calibration import Calibration, generate_calibration
from .crosstalk import CrosstalkModel, generate_crosstalk_model
from .devices import (
    Device,
    ibm_manhattan,
    ibm_melbourne,
    ibm_toronto,
    linear_device,
)
from .fleet import PLACEMENT_POLICIES, DeviceFleet
from .topology import CouplingMap, Edge

__all__ = [
    "Calibration",
    "CouplingMap",
    "CrosstalkModel",
    "Device",
    "DeviceFleet",
    "Edge",
    "PLACEMENT_POLICIES",
    "generate_calibration",
    "generate_crosstalk_model",
    "ibm_manhattan",
    "ibm_melbourne",
    "ibm_toronto",
    "linear_device",
]
