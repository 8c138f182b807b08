import pytest

from helpers import UniformRandomBackend
from qbench.backends import CapabilityError, LocalSimBackend, submit_and_wait
from qbench.circuits import Circuit, cz, measure_all, x, x90
from qbench.device import starmon5_reference_model
from qbench.remote import MockServer, RemoteBackend


@pytest.fixture(params=["local", "uniform", "remote"])
def contract_backend(request):
    """A five-qubit backend of each kind, paired with the name of the kind."""
    if request.param == "uniform":
        yield UniformRandomBackend(5), "uniform"
        return
    local = LocalSimBackend(starmon5_reference_model())
    if request.param == "local":
        yield local, "local"
        return
    with MockServer(local) as server:
        yield RemoteBackend(server.url, n_qubits=5, connectivity=local.connectivity), "remote"


def test_backend_contract(contract_backend):
    backend, kind = contract_backend
    circuits = [
        Circuit(5, (x(0), measure_all()), label="a"),
        Circuit(3, (x90(1), cz(1, 2), measure_all()), label="b"),
        Circuit(5, (x(4), measure_all()), label="c"),
    ]
    tables = backend.run(circuits, 64, seed=9)
    assert [t.n_qubits for t in tables] == [5, 3, 5]
    assert all(t.shots == 64 and sum(t.counts.values()) == 64 for t in tables)
    if kind != "uniform":  # the flipped qubit shows which circuit a table belongs to
        assert tables[0].fraction_ones(0) > 0.9 and tables[0].fraction_ones(4) < 0.1
        assert tables[2].fraction_ones(4) > 0.9 and tables[2].fraction_ones(0) < 0.1
    assert backend.run(circuits, 64, seed=9) == tables
    assert submit_and_wait(backend, [], 64, seed=9) == []
    assert (backend.timing is not None) == (kind == "local")
    assert (backend.advance_clock(10.0) is not None) == (kind == "local")


class TestLocalBackend:
    def test_submit_and_wait_order_preserving(self, ideal_backend_5):
        c0 = Circuit(5, (x(0), measure_all()), label="a")
        c1 = Circuit(5, (x(1), measure_all()), label="b")
        tables = submit_and_wait(ideal_backend_5, [c0, c1], 64, seed=5)
        assert tables[0].counts == {"10000": 64}
        assert tables[1].counts == {"01000": 64}

    def test_empty_batch(self, ideal_backend_5):
        assert submit_and_wait(ideal_backend_5, [], 10, seed=0) == []

    def test_capability_width(self, starmon_backend):
        too_wide = Circuit(6, (x(5), measure_all()))
        with pytest.raises(CapabilityError):
            submit_and_wait(starmon_backend, [too_wide], 8, seed=0)

    def test_capability_connectivity(self, starmon_backend):
        disconnected = Circuit(5, (cz(0, 1), measure_all()))
        with pytest.raises(CapabilityError):
            submit_and_wait(starmon_backend, [disconnected], 8, seed=0)

    def test_same_seed_same_tables(self, starmon_backend):
        c = Circuit(5, (x(2), measure_all()))
        t1 = submit_and_wait(starmon_backend, [c], 256, seed=7)[0]
        t2 = submit_and_wait(starmon_backend, [c], 256, seed=7)[0]
        assert t1.counts == t2.counts

    def test_preferred_order_center_first(self, starmon_backend):
        order = starmon_backend.preferred_qubit_order()
        assert order[0] == 2  # the star center
        assert sorted(order) == [0, 1, 2, 3, 4]


class TestUniformBackend:
    def test_flat_distribution(self):
        be = UniformRandomBackend(2)
        c = Circuit(2, (measure_all(),))
        table = submit_and_wait(be, [c], 40000, seed=1)[0]
        for key in ("00", "01", "10", "11"):
            assert table.counts[key] / 40000 == pytest.approx(0.25, abs=0.02)
