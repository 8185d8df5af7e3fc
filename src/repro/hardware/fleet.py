"""Multi-device fleets: the hardware side of the cloud service layer.

A :class:`DeviceFleet` groups heterogeneous devices behind one dispatch
surface and encodes the placement policy the scheduler consults when more
than one device could take the next batch:

- ``round_robin`` — rotate through eligible devices; fair and stateless.
- ``least_loaded`` — pick the device with the least accumulated busy
  time; balances queues when devices differ in speed or demand.
- ``best_fidelity`` — pick the device where the head program's solo
  placement scores best (lowest EFS); quality-first routing.

The fleet itself is pure policy: runtime state (who is busy, cumulative
load, the round-robin cursor, per-device placement scores) is owned by
the scheduler and passed in per decision, keeping this module free of
any dependency on the allocation layer above it.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Sequence, Tuple, Union

from .devices import Device

__all__ = ["DeviceFleet", "PLACEMENT_POLICIES"]

#: Supported placement policy names.
PLACEMENT_POLICIES: Tuple[str, ...] = (
    "round_robin", "least_loaded", "best_fidelity")


class DeviceFleet:
    """An ordered pool of devices plus a batch-placement policy."""

    def __init__(self, devices: Union[Device, Sequence[Device]],
                 policy: str = "least_loaded") -> None:
        if isinstance(devices, Device):
            devices = (devices,)
        self.devices: Tuple[Device, ...] = tuple(devices)
        if not self.devices:
            raise ValueError("a fleet needs at least one device")
        if policy not in PLACEMENT_POLICIES:
            raise ValueError(
                f"unknown placement policy {policy!r}; "
                f"choose from {PLACEMENT_POLICIES}")
        self.policy = policy

    def __len__(self) -> int:
        return len(self.devices)

    def __iter__(self) -> Iterator[Device]:
        return iter(self.devices)

    def __getitem__(self, index: int) -> Device:
        return self.devices[index]

    def resolve_device(self, ref: Union[int, str]) -> int:
        """Resolve a device reference (index or name) to a fleet index.

        Fault plans and operator tooling name devices; the scheduler
        works in indices.  A name must match exactly one device —
        fleets may legitimately hold twin devices under one name, and
        an outage on "the" twin would be ambiguous.
        """
        if isinstance(ref, bool):
            raise TypeError("device reference must be an index or a name")
        if isinstance(ref, int):
            if not 0 <= ref < len(self.devices):
                raise ValueError(
                    f"device index {ref} out of range for a "
                    f"{len(self.devices)}-device fleet")
            return ref
        matches = [i for i, d in enumerate(self.devices) if d.name == ref]
        if not matches:
            names = ", ".join(d.name for d in self.devices)
            raise ValueError(
                f"unknown device {ref!r}; fleet holds: {names}")
        if len(matches) > 1:
            raise ValueError(
                f"device name {ref!r} is ambiguous: indices {matches}")
        return matches[0]

    def select(
        self,
        eligible: Sequence[int],
        loads: Mapping[int, float],
        solo_efs: Mapping[int, float],
        rr_cursor: int = 0,
    ) -> int:
        """Choose one device index out of *eligible* under the policy.

        *loads* maps device index -> accumulated busy nanoseconds;
        *solo_efs* maps device index -> the head program's solo-best EFS
        on that device (only consulted by ``best_fidelity``).
        """
        if not eligible:
            raise ValueError("no eligible devices to select from")
        if self.policy == "round_robin":
            n = len(self.devices)
            return min(eligible, key=lambda i: ((i - rr_cursor) % n, i))
        if self.policy == "least_loaded":
            return min(eligible, key=lambda i: (loads.get(i, 0.0), i))
        # best_fidelity
        return min(eligible,
                   key=lambda i: (solo_efs.get(i, float("inf")), i))
