"""Backend abstraction: local simulator and batch helpers.

A backend has one execution call, :meth:`Backend.run`: it takes a batch of
circuits, a shot count and a seed, and returns one ShotTable per circuit,
in order, each holding exactly the requested shots.  The local simulator
runs the batch synchronously; the remote backend (see :mod:`qbench.remote`)
submits it to a job endpoint and polls until it is done.

A backend's other abstract member is ``device``, the DeviceModel it runs.
The base class alone derives from it the width, coupling, capability check,
qubit ranking and record metadata; Q-factor reads its gate times.

Two optional capabilities replace checks on the concrete backend class:

* ``timing`` is the model CLOPS times a batch's quantum part with: the
  simulator's device timing, or None (the remote client), where the window
  is measured.
* ``advance_clock(seconds)`` moves a virtual wall clock and returns the new
  time, or None when the backend has no such clock.  The local backend's
  clock redraws the per-epoch coherence jitter, so slow parameter drift can
  be exercised without real waiting.
"""
from __future__ import annotations

import abc
import hashlib
import json

import numpy as np

from .circuits import Circuit, TimingModel, unconnected_cz
from .device import DeviceModel
from .simulator import ShotTable, run_noisy


class BackendError(Exception):
    """Base class for backend failures."""


class CapabilityError(BackendError):
    """Submitted circuits exceed what the backend can execute."""


class JobNotFoundError(BackendError):
    """Unknown job handle."""


class SubmitTimeout(BackendError):
    """Results were not ready in time; the handle stays valid."""

    def __init__(self, handle: str, message: str = "") -> None:
        super().__init__(message or f"timed out waiting for job {handle}")
        self.handle = handle


class Backend(abc.ABC):
    """Executes circuit batches and returns measurement histograms."""

    timing: TimingModel | None = None

    @property
    @abc.abstractmethod
    def device(self) -> DeviceModel:
        """The device this backend executes on."""

    @abc.abstractmethod
    def run(self, circuits: list[Circuit], shots: int, seed: int) -> list[ShotTable]:
        """Execute a batch: one table per circuit, in order, ``shots`` shots each."""

    @property
    def n_qubits(self) -> int:
        return self.device.n_qubits

    @property
    def connectivity(self) -> frozenset[tuple[int, int]] | None:
        """Allowed CZ pairs; None means all-to-all."""
        return self.device.edge_set()

    def advance_clock(self, seconds: float) -> float | None:
        """Move the virtual wall clock; None when the backend has none."""
        return None

    def metadata(self) -> dict:
        """The record's ``backend`` section: the kind, and the device with its content hash."""
        device = self.device
        doc = device.to_json_dict()
        return {
            "kind": type(self).__name__,
            "n_qubits": device.n_qubits,
            "edges": doc["edges"],
            "p2": device.p2,
            "device_sha256": hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest(),
        }

    def check_capabilities(self, circuits: list[Circuit]) -> None:
        edges = self.connectivity
        for c in circuits:
            if c.n_qubits > self.n_qubits:
                raise CapabilityError(
                    f"circuit {c.label!r} needs {c.n_qubits} qubits, backend has {self.n_qubits}"
                )
            bad = unconnected_cz(c.ops, edges)
            if bad is not None:
                raise CapabilityError(
                    f"circuit {c.label!r} has CZ on unconnected pair {bad.qubits}"
                )

    def preferred_qubit_order(self) -> list[int]:
        """Physical qubits sorted by connectivity degree, then readout fidelity, best first."""
        device = self.device
        if device.edges is None:
            return list(range(device.n_qubits))
        degree = {q: 0 for q in range(device.n_qubits)}
        for a, b in device.edges:
            degree[a] += 1
            degree[b] += 1
        fidelity = [1.0 - (q.readout[0][1] + q.readout[1][0]) / 2 for q in device.qubits]
        return sorted(degree, key=lambda q: (-degree[q], -fidelity[q], q))


class LocalSimBackend(Backend):
    """Noisy density-matrix simulator behind the backend interface."""

    def __init__(self, device: DeviceModel, drift_seed: int = 0) -> None:
        self._device = device
        self.timing = device.timing
        self.clock_s = 0.0
        self._drift_seed = drift_seed
        self._epoch = 0
        self._effective = device

    @property
    def device(self) -> DeviceModel:
        return self._device

    def advance_clock(self, seconds: float) -> float:
        """Move the virtual wall clock and redraw the drift jitter."""
        self.clock_s += seconds
        self._epoch += 1
        self._refresh_effective()
        return self.clock_s

    def _refresh_effective(self) -> None:
        drift = self.device.drift
        if drift is None:
            self._effective = self.device
            return
        t1m, t2m = drift.multipliers_at(self.clock_s)
        n = self.device.n_qubits
        if drift.jitter_sigma > 0:
            rng = np.random.default_rng(
                np.random.SeedSequence([self._drift_seed, self._epoch])
            )
            jitter = 1.0 + drift.jitter_sigma * rng.standard_normal(n)
            jitter = np.clip(jitter, 0.2, 3.0)
        else:
            jitter = np.ones(n)
        self._effective = self.device.with_coherence_scale(
            t1m, [t2m * j for j in jitter]
        )

    def run(self, circuits: list[Circuit], shots: int, seed: int) -> list[ShotTable]:
        return [
            run_noisy(c, self._effective, shots,
                      np.random.default_rng(np.random.SeedSequence([int(seed), i])))
            for i, c in enumerate(circuits)
        ]


def submit_and_wait(
    backend: Backend,
    circuits: list[Circuit],
    shots: int,
    seed: int,
) -> list[ShotTable]:
    """Check a batch against the backend's capabilities and run it."""
    if not circuits:
        return []
    backend.check_capabilities(circuits)
    return backend.run(circuits, shots, seed)
