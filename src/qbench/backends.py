"""Backend abstraction: local simulator and batch helpers.

A backend has one execution call, :meth:`Backend.run`: it takes a batch of
circuits, a shot count and a seed, and returns one ShotTable per circuit,
in order, each holding exactly the requested shots.  The local simulator
runs the batch synchronously; the remote backend (see :mod:`qbench.remote`)
submits it to a job endpoint and polls until it is done.

Two optional capabilities replace checks on the concrete backend class:

* ``timing`` is the executing hardware's gate-timing model, or None when
  the backend has none.  Throughput measurements use it to model the
  quantum time of a batch.
* ``advance_clock(seconds)`` moves a virtual wall clock and returns the new
  time, or None when the backend has no such clock.  The local backend's
  clock redraws the per-epoch coherence jitter, so slow parameter drift can
  be exercised without real waiting.
"""
from __future__ import annotations

import abc

import numpy as np

from .circuits import GATE_KINDS, Circuit, TimingModel, unconnected_cz
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
    def n_qubits(self) -> int: ...

    @property
    @abc.abstractmethod
    def connectivity(self) -> frozenset[tuple[int, int]] | None:
        """Allowed CZ pairs; None means all-to-all."""

    @abc.abstractmethod
    def run(self, circuits: list[Circuit], shots: int, seed: int) -> list[ShotTable]:
        """Execute a batch: one table per circuit, in order, ``shots`` shots each."""

    def advance_clock(self, seconds: float) -> float | None:
        """Move the virtual wall clock; None when the backend has none."""
        return None

    def metadata(self) -> dict:
        return {
            "kind": type(self).__name__,
            "n_qubits": self.n_qubits,
            "native_gates": list(GATE_KINDS),
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

    def _qubit_quality(self, qubit: int) -> float:
        """Tie-break between equally connected qubits; higher is better."""
        return 0.0

    def preferred_qubit_order(self) -> list[int]:
        """Physical qubits sorted by connectivity degree, best first."""
        if self.connectivity is None:
            return list(range(self.n_qubits))
        degree = {q: 0 for q in range(self.n_qubits)}
        for a, b in self.connectivity:
            degree[a] += 1
            degree[b] += 1
        return sorted(degree, key=lambda q: (-degree[q], -self._qubit_quality(q), q))


class LocalSimBackend(Backend):
    """Noisy density-matrix simulator behind the backend interface."""

    def __init__(self, device: DeviceModel, drift_seed: int = 0) -> None:
        self.device = device
        self.timing = device.timing
        self.clock_s = 0.0
        self._drift_seed = drift_seed
        self._epoch = 0
        self._effective = device

    @property
    def n_qubits(self) -> int:
        return self.device.n_qubits

    @property
    def connectivity(self) -> frozenset[tuple[int, int]] | None:
        return self.device.edge_set()

    def metadata(self) -> dict:
        return {
            "kind": "LocalSimBackend",
            "n_qubits": self.n_qubits,
            "edges": None if self.device.edges is None else [list(e) for e in self.device.edges],
            "p2": self.device.p2,
        }

    def _qubit_quality(self, qubit: int) -> float:
        """Readout fidelity."""
        readout = self.device.qubits[qubit].readout
        return 1.0 - (readout[0][1] + readout[1][0]) / 2

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
