"""The kernel-backend seam: dispatch, fallback, and threading.

Bit-identity of the vectorized kernels is pinned by the hypothesis
suites (``test_csr_fastpaths``, ``test_batched_sources``,
``test_incremental``) parametrised over the ``backend`` fixture; this
module covers the seam itself — mode precedence (pin > auto), the
read-only measured work thresholds, the numpy-absent fallback,
protocol conformance of both backends, the CSR ndarray mirror's
lifecycle, and the provenance/stats threading up through ``Session``.
"""

from __future__ import annotations

import importlib.util
import pickle
import random
from array import array

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.backends import (
    KERNEL_NAMES,
    THRESHOLDS,
    UNREACHABLE,
    current_mode,
    numpy_or_none,
    row_eccentricity,
    set_backend,
)
from repro.backends import api as backends_api
from repro.backends.dispatch import backend_for, kernel_impl
from repro.exceptions import BackendError, GraphError
from repro.graphs import generators
from repro.graphs.base import Graph
from repro.query import DistanceQuery, Session, VectorQuery
from repro.scenarios import ScenarioEngine
from repro.spt.bfs import UNREACHABLE as BFS_UNREACHABLE
from repro.spt.fastpaths import csr_bfs_distances

HAVE_NUMPY = numpy_or_none() is not None

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="needs numpy")


@pytest.fixture(autouse=True)
def _clean_seam(monkeypatch):
    """Every test starts unpinned, with numpy allowed."""
    monkeypatch.delenv("REPRO_NO_NUMPY", raising=False)
    previous = set_backend(None)
    yield
    set_backend(previous)


def small_csr():
    return generators.cycle(6).csr()


def is_hop_row(row):
    """Every hop kernel returns its rows as ``array('i')``."""
    return isinstance(row, array) and row.typecode == "i"


def big_csr():
    return generators.gnm(300, 1200, seed=4).csr()


class TestModePrecedence:
    def test_default_is_auto(self):
        assert current_mode() == "auto"

    @needs_numpy
    def test_pin_overrides_auto(self):
        # A batch-256 wave on big_csr is far above its crossover, so
        # auto sends it to vectorized; the pin wins over the table,
        # and an "auto" pin is the same as no pin.
        def pick():
            return backend_for("csr_bfs_distances_many", big_csr(),
                               batch=256).name
        assert pick() == "vectorized"
        set_backend("pyloops")
        assert current_mode() == "pyloops" and pick() == "pyloops"
        assert set_backend("auto") == "pyloops"
        assert current_mode() == "auto" and pick() == "vectorized"

    def test_unknown_pin_rejected(self):
        with pytest.raises(BackendError):
            set_backend("fortran")

    def test_pin_returns_previous(self):
        assert set_backend("pyloops") is None
        assert set_backend(None) == "pyloops"


class TestAutoDispatch:
    def test_small_calls_stay_on_pyloops(self):
        # cycle(6): 12 arcs of work — far under every threshold.
        assert backend_for("csr_bfs_distances",
                           small_csr()).name == "pyloops"

    @needs_numpy
    def test_large_batched_call_goes_vectorized(self):
        csr = big_csr()
        assert backend_for("csr_bfs_distances_many", csr,
                           batch=256).name == "vectorized"

    @needs_numpy
    def test_threshold_table_is_consulted(self):
        # The batch at which arcs x batch reaches the crossover goes
        # vectorized; one source fewer stays on the loops.
        kernel, csr = "csr_bfs_distances_many", big_csr()
        at = -(-THRESHOLDS[kernel] // len(csr.indices))
        assert at > 1
        assert backend_for(kernel, csr, batch=at - 1).name == "pyloops"
        assert backend_for(kernel, csr, batch=at).name == "vectorized"

    def test_threshold_table_covers_exactly_the_kernels(self):
        assert set(THRESHOLDS) == set(KERNEL_NAMES)

    def test_threshold_table_is_read_only(self):
        # No caller re-tunes the shipped table at run time.
        with pytest.raises(TypeError):
            THRESHOLDS["csr_bfs_distances"] = 1
        with pytest.raises(TypeError):
            del THRESHOLDS["csr_bfs_distances"]

    @needs_numpy
    def test_weighted_auto_requires_safe_weights(self):
        # big_csr's arcs clear the weighted single-source threshold:
        # safe weights go vectorized, but weights near 2**61 would
        # overflow a vectorized path sum, so auto keeps the loops.
        kernel, csr = "csr_weighted_distances", big_csr()
        assert len(csr.indices) >= THRESHOLDS[kernel]
        safe = csr.with_arc_weights(lambda u, v: 1 + (u * 31 + v * 17) % 16)
        huge = csr.with_arc_weights(lambda u, v: 1 << 61)
        assert backend_for(kernel, safe).name == "vectorized"
        assert backend_for(kernel, huge).name == "pyloops"


class TestNumpyFallback:
    def test_no_numpy_env_disables_probe(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_NUMPY", "1")
        assert numpy_or_none() is None

    def test_no_numpy_env_zero_is_off(self, monkeypatch):
        # "0" disables the kill switch, so availability must track the
        # actual install — not HAVE_NUMPY, which snapshots the outer
        # environment (a no-numpy CI leg exports REPRO_NO_NUMPY=1).
        monkeypatch.setenv("REPRO_NO_NUMPY", "0")
        installed = importlib.util.find_spec("numpy") is not None
        assert (numpy_or_none() is None) == (not installed)

    def test_auto_falls_back_without_numpy(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_NUMPY", "1")
        assert backend_for("csr_bfs_distances_many", big_csr(),
                           batch=256).name == "pyloops"

    def test_forcing_vectorized_without_numpy_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_NUMPY", "1")
        with pytest.raises(BackendError):
            set_backend("vectorized")

    def test_env_forced_vectorized_without_numpy_raises(self, monkeypatch):
        # A vectorized pin taken while numpy loads raises at resolution
        # once REPRO_NO_NUMPY hides it.  The fixture cleared that flag,
        # so this tracks the actual install, like the test above.
        if numpy_or_none() is None:
            pytest.skip("taking a vectorized pin needs numpy installed")
        set_backend("vectorized")
        monkeypatch.setenv("REPRO_NO_NUMPY", "1")
        with pytest.raises(BackendError):
            backend_for("csr_bfs_distances", small_csr())

    def test_kernels_still_serve_without_numpy(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_NUMPY", "1")
        csr = small_csr()
        assert list(csr_bfs_distances(csr, None, 0)) == [0, 1, 2, 3, 2, 1]


class TestProtocolConformance:
    @pytest.mark.parametrize("mode", ["pyloops", "vectorized"])
    def test_backend_exposes_every_kernel(self, mode):
        if mode == "vectorized" and not HAVE_NUMPY:
            pytest.skip("needs numpy")
        set_backend(mode)
        backend = backend_for("csr_bfs_distances", small_csr())
        assert backend.name == mode
        for kernel in KERNEL_NAMES:
            assert callable(getattr(backend, kernel)), kernel

    def test_unreached_sentinel_is_shared(self):
        assert UNREACHABLE == BFS_UNREACHABLE == -1

    @needs_numpy
    def test_kernel_impl_routes_by_mode(self):
        csr = small_csr()
        set_backend("vectorized")
        vec_fn = kernel_impl("csr_bfs_distances", csr)
        set_backend("pyloops")
        loop_fn = kernel_impl("csr_bfs_distances", csr)
        assert vec_fn is not loop_fn
        vec_row, loop_row = vec_fn(csr, None, 0), loop_fn(csr, None, 0)
        assert is_hop_row(vec_row) and is_hop_row(loop_row)
        assert vec_row == loop_row

    @pytest.mark.parametrize("mode", ["pyloops", "vectorized"])
    def test_hop_kernels_return_int_arrays_on_every_path(self, mode):
        if mode == "vectorized" and not HAVE_NUMPY:
            pytest.skip("needs numpy")
        set_backend(mode)
        csr = small_csr()
        backend = backend_for("csr_bfs_distances", csr)
        mask = csr.without([(0, 1)])._as_csr()[1]
        base = backend.csr_bfs_distances(csr, None, 0)
        want = backend.csr_bfs_distances(csr, mask, 0)
        many = backend.csr_bfs_distances_many(csr, mask, [0, 3, 3])
        patched, _ = backend.csr_bfs_repair(csr, mask, base, [1, 2, 3])
        untouched, _ = backend.csr_bfs_repair(csr, None, base, [])
        for row in (base, want, *many, patched, untouched):
            assert is_hop_row(row)
        assert list(want) == [0, 5, 4, 3, 2, 1]
        assert many[0] == want and patched == want and untouched == base

    @needs_numpy
    def test_unknown_source_raises_on_both(self):
        csr = small_csr()
        for mode in ("pyloops", "vectorized"):
            set_backend(mode)
            with pytest.raises(GraphError):
                kernel_impl("csr_bfs_distances", csr)(csr, None, 99)


def _scan(row):
    """The reference reduction: the planner's scan before the helper."""
    return UNREACHABLE if UNREACHABLE in list(row) else max(row)


@st.composite
def cut_rows(draw, top):
    """Non-empty rows of entries in ``[0, top]``, some cut off."""
    values = draw(st.lists(st.integers(0, top), min_size=1, max_size=300))
    rng = random.Random(draw(st.integers(0, 2**16)))
    for _ in range(draw(st.integers(0, 3))):
        values[rng.randrange(len(values))] = UNREACHABLE
    return values


HELPER_SETTINGS = dict(
    max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


class TestRowEccentricity:
    """``row_eccentricity`` equals the scan it replaced, on every row
    type, and always returns a Python ``int``."""

    @needs_numpy
    @given(cut_rows(2**31 - 1))
    @settings(**HELPER_SETTINGS)
    def test_hop_rows_with_numpy(self, values):
        row = array("i", values)
        got = row_eccentricity(row)
        assert got == _scan(row) and type(got) is int

    @given(cut_rows(2**31 - 1))
    @settings(**HELPER_SETTINGS)
    def test_hop_rows_without_numpy(self, values):
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv("REPRO_NO_NUMPY", "1")
            row = array("i", values)
            got = row_eccentricity(row)
        assert got == _scan(row) and type(got) is int

    @given(cut_rows(2**80))
    @settings(**HELPER_SETTINGS)
    def test_weighted_list_rows(self, values):
        got = row_eccentricity(values)
        assert got == _scan(values) and type(got) is int

    def test_single_slot_rows(self):
        for row in (array("i", [0]), array("i", [UNREACHABLE]), [7]):
            assert row_eccentricity(row) == _scan(row)

    def test_never_imports_numpy_itself(self, monkeypatch):
        # Before any kernel has loaded numpy, the reduction takes the
        # Python scan and leaves the import to the kernels.
        probe = []
        monkeypatch.setattr(backends_api, "_NUMPY_PROBE", probe)
        assert row_eccentricity(array("i", [0, 3, UNREACHABLE])) \
            == UNREACHABLE
        assert row_eccentricity(array("i", [0, 3, 2])) == 3
        assert probe == []


class TestNDMirror:
    @needs_numpy
    def test_mirror_is_cached(self):
        csr = small_csr()
        nd = csr.ndarrays()
        assert nd is not None
        assert csr.ndarrays() is nd

    def test_mirror_none_without_numpy(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_NUMPY", "1")
        assert small_csr().ndarrays() is None

    @needs_numpy
    def test_pickle_drops_the_mirror(self):
        csr = small_csr()
        csr.ndarrays()
        clone = pickle.loads(pickle.dumps(csr))
        assert clone._nd is None
        assert clone.indptr == csr.indptr
        assert clone.ndarrays() is not None

    @needs_numpy
    def test_weighted_mirror_carries_reverse_map(self):
        np = numpy_or_none()
        csr = generators.cycle(5).csr().with_arc_weights(
            lambda u, v: 1 + u * 10 + v)
        nd = csr.ndarrays()
        assert nd.weights is not None
        # rev[i] is the arc (head_i, tail_i): weights[rev] must be the
        # reverse-direction weight of every arc.
        for i in range(len(csr.indices)):
            t, h = int(nd.tails[i]), int(nd.indices[i])
            assert int(nd.weights[nd.rev[i]]) == 1 + h * 10 + t
        # Unweighted snapshots carry it too (the multi-source wave's
        # pull levels read it); isolated vertices leave empty rows.
        plain = Graph(32, generators.gnm(30, 60, seed=2).edges())
        nd = plain.csr().ndarrays()
        assert nd.weights is None
        assert nd.degree[-1] == 0 and nd.rows[-1] < plain.n - 1
        assert np.array_equal(nd.rev[nd.rev], np.arange(nd.indices.size))
        assert np.array_equal(nd.indices[nd.rev], nd.tails)
        assert np.array_equal(nd.row_starts, nd.indptr[nd.rows])
        assert np.array_equal(nd.rows, np.flatnonzero(nd.degree))


class TestBackendThreading:
    def test_cache_info_reports_wave_backends(self):
        engine = ScenarioEngine(generators.torus(4, 4))
        engine.source_vectors([0, 1, 2], [(0, 1)])
        info = engine.cache_info()
        assert dict(info.wave_backends) == {engine.last_wave_backend: 1}
        assert dict(info)["wave_backends"] == info.wave_backends

    def test_wave_provenance_carries_backend(self):
        session = Session(generators.torus(4, 4))
        answer = session.answer(
            [VectorQuery(source=0, faults=((0, 1),))])[0]
        assert answer.provenance.source == "wave"
        assert answer.provenance.backend in ("pyloops", "vectorized")
        assert answer.provenance.backend == session.engine.last_wave_backend

    def test_cached_answer_has_no_backend(self):
        session = Session(generators.torus(4, 4))
        query = [DistanceQuery(source=0, target=5, faults=((0, 1),))]
        session.answer(query)
        again = session.answer(query)[0]
        assert again.provenance.source == "cache"
        assert again.provenance.backend is None

    def test_session_stats_count_by_backend(self):
        session = Session(generators.torus(4, 4))
        session.answer([VectorQuery(source=s, faults=((0, 1),))
                        for s in range(4)])
        stats = session.stats
        assert sum(stats.by_backend.values()) == stats.wave + stats.delta
        assert set(stats.by_backend) <= {"pyloops", "vectorized"}

    def test_delta_provenance_carries_backend(self):
        g = generators.torus(5, 5)
        session = Session(g)
        faults = ((0, 1),)
        # Warm the origin so the delta path serves the repeat.
        session.answer([VectorQuery(source=0, faults=faults)])
        session.answer([VectorQuery(source=0, faults=((0, 5),))])
        answers = session.answer([VectorQuery(source=0,
                                              faults=((1, 2),))])
        prov = answers[0].provenance
        if prov.source == "delta":
            assert prov.backend in ("pyloops", "vectorized")
            assert prov.backend == session.engine.last_repair_backend
