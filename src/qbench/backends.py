"""Backend abstraction: local simulator, stub backends, and batch helpers.

A backend accepts batches of circuits and hands back one ShotTable per
circuit.  Results for a completed handle are immutable and repeatable.
Submissions against the local simulator run synchronously; remote backends
(see :mod:`qbench.remote`) poll a job endpoint.

The local backend carries a virtual wall clock so slow parameter drift can
be exercised without real waiting: :meth:`LocalSimBackend.advance_clock`
moves time forward and redraws the per-epoch coherence jitter.
"""
from __future__ import annotations

import abc
import uuid
from dataclasses import dataclass

import numpy as np

from .circuits import Circuit
from .device import DeviceModel
from .simulator import ShotTable, index_to_bitstring, run_noisy


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

    native_gates: tuple[str, ...] = ("X", "X90", "Y90", "RZ", "CZ", "WAIT", "MEASURE_ALL")

    @property
    @abc.abstractmethod
    def n_qubits(self) -> int: ...

    @property
    @abc.abstractmethod
    def connectivity(self) -> frozenset[tuple[int, int]] | None:
        """Allowed CZ pairs; None means all-to-all."""

    @abc.abstractmethod
    def submit(self, circuits: list[Circuit], shots: int, seed: int) -> str: ...

    @abc.abstractmethod
    def result(self, handle: str) -> list[ShotTable]: ...

    def metadata(self) -> dict:
        return {
            "kind": type(self).__name__,
            "n_qubits": self.n_qubits,
            "native_gates": list(self.native_gates),
        }

    def check_capabilities(self, circuits: list[Circuit]) -> None:
        for c in circuits:
            if c.n_qubits > self.n_qubits:
                raise CapabilityError(
                    f"circuit {c.label!r} needs {c.n_qubits} qubits, backend has {self.n_qubits}"
                )
            if self.connectivity is not None:
                for g in c.ops:
                    if g.kind == "CZ" and tuple(sorted(g.qubits)) not in self.connectivity:
                        raise CapabilityError(
                            f"circuit {c.label!r} has CZ on unconnected pair {g.qubits}"
                        )

    def preferred_qubit_order(self) -> list[int]:
        """Physical qubits sorted by connectivity degree, best first."""
        if self.connectivity is None:
            return list(range(self.n_qubits))
        degree = {q: 0 for q in range(self.n_qubits)}
        for a, b in self.connectivity:
            degree[a] += 1
            degree[b] += 1
        return sorted(degree, key=lambda q: (-degree[q], q))


class LocalSimBackend(Backend):
    """Noisy density-matrix simulator behind the backend interface."""

    def __init__(self, device: DeviceModel, drift_seed: int = 0) -> None:
        self.device = device
        self.clock_s = 0.0
        self._drift_seed = drift_seed
        self._epoch = 0
        self._jobs: dict[str, list[ShotTable]] = {}
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

    def preferred_qubit_order(self) -> list[int]:
        """Best-connected first, ties broken by readout fidelity."""
        if self.connectivity is None:
            return list(range(self.n_qubits))
        degree = {q: 0 for q in range(self.n_qubits)}
        for a, b in self.connectivity:
            degree[a] += 1
            degree[b] += 1
        fro = {
            q: 1.0 - (self.device.qubits[q].readout[0][1] + self.device.qubits[q].readout[1][0]) / 2
            for q in range(self.n_qubits)
        }
        return sorted(degree, key=lambda q: (-degree[q], -fro[q], q))

    def advance_clock(self, seconds: float) -> None:
        """Move the virtual wall clock and redraw the drift jitter."""
        self.clock_s += seconds
        self._epoch += 1
        self._refresh_effective()

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

    def effective_device(self) -> DeviceModel:
        return self._effective

    def submit(self, circuits: list[Circuit], shots: int, seed: int) -> str:
        self.check_capabilities(circuits)
        tables = []
        for i, c in enumerate(circuits):
            rng = np.random.default_rng(np.random.SeedSequence([int(seed), i]))
            t = run_noisy(c, self._effective, shots, rng)
            tables.append(
                ShotTable(counts=t.counts, shots=shots, seed=int(seed), n_qubits=t.n_qubits)
            )
        handle = str(uuid.uuid4())
        self._jobs[handle] = tables
        return handle

    def result(self, handle: str) -> list[ShotTable]:
        if handle not in self._jobs:
            raise JobNotFoundError(handle)
        return self._jobs[handle]


class UniformRandomBackend(Backend):
    """Returns uniformly random bitstrings; a floor for every metric."""

    def __init__(self, n_qubits: int) -> None:
        self._n = n_qubits
        self._jobs: dict[str, list[ShotTable]] = {}

    @property
    def n_qubits(self) -> int:
        return self._n

    @property
    def connectivity(self) -> frozenset[tuple[int, int]] | None:
        return None

    def submit(self, circuits: list[Circuit], shots: int, seed: int) -> str:
        self.check_capabilities(circuits)
        tables = []
        for i, c in enumerate(circuits):
            rng = np.random.default_rng(np.random.SeedSequence([int(seed), i, 0xF00D]))
            outcomes = rng.integers(0, 2**c.n_qubits, size=shots)
            values, counts = np.unique(outcomes, return_counts=True)
            tables.append(
                ShotTable(
                    counts={
                        index_to_bitstring(int(v), c.n_qubits): int(k)
                        for v, k in zip(values, counts)
                    },
                    shots=shots,
                    seed=int(seed),
                    n_qubits=c.n_qubits,
                )
            )
        handle = str(uuid.uuid4())
        self._jobs[handle] = tables
        return handle

    def result(self, handle: str) -> list[ShotTable]:
        if handle not in self._jobs:
            raise JobNotFoundError(handle)
        return self._jobs[handle]


@dataclass
class FailAfterBackend(Backend):
    """Test helper: proxies an inner backend, failing after N submissions."""

    inner: Backend
    fail_after: int
    submissions: int = 0

    @property
    def n_qubits(self) -> int:
        return self.inner.n_qubits

    @property
    def connectivity(self) -> frozenset[tuple[int, int]] | None:
        return self.inner.connectivity

    def submit(self, circuits: list[Circuit], shots: int, seed: int) -> str:
        if self.submissions >= self.fail_after:
            raise BackendError("injected backend failure")
        self.submissions += 1
        return self.inner.submit(circuits, shots, seed)

    def result(self, handle: str) -> list[ShotTable]:
        return self.inner.result(handle)


def submit_and_wait(
    backend: Backend,
    circuits: list[Circuit],
    shots: int,
    seed: int,
    timeout_s: float = 60.0,
) -> list[ShotTable]:
    """Submit a batch and block until its tables are available, in order."""
    if not circuits:
        return []
    backend.check_capabilities(circuits)
    handle = backend.submit(circuits, shots, seed)
    waiter = getattr(backend, "wait", None)
    if waiter is not None:
        waiter(handle, timeout_s)
    return backend.result(handle)
