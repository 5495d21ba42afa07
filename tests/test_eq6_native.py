"""The compiled Eq. 6 loop against its numpy reference, bit for bit.

:mod:`repro.core._eq6` runs the damped fixed-point iteration of
:func:`repro.core.service.solve_service_times` natively; the numpy loop
(``service._fixed_point_numpy``) is the reference it must reproduce
exactly, since every cached sweep rate is a fraction of a bisected
saturation rate.  This suite compares the two on seeded networks and
loads from idle to far past saturation, on random arrays that carry NaN
and inf, and checks that malformed arrays are refused before the loop
runs.  Tests marked ``requires_eq6`` skip on a build without the
extension; the ``python -m repro kernels`` reports run everywhere.
"""

import numpy as np
import pytest

from repro.core import AnalyticalModel, TrafficSpec, service
from repro.core.flows import build_flows
from repro.core.service import native_fixed_point_status, solve_service_times
from repro.routing import MeshRouting, QuarcRouting
from repro.topology import MeshTopology, QuarcTopology
from repro.workloads.destsets import random_multicast_sets

from test_c_kernel import _kernels_report

requires_eq6 = pytest.mark.skipif(
    not native_fixed_point_status()[0],
    reason=f"native Eq. 6 loop not built: {native_fixed_point_status()[1]}",
)

NETWORKS = ("quarc8", "quarc16", "quarc32", "mesh4x4")
KINDS = ("unicast-only", "multicast-only", "zero-weights")
#: fractions of the occupancy recursion's saturation rate: idle, light,
#: half, at the threshold (where the occupancy loop runs to the cap), just
#: past it and far past it (inf on the first iteration)
FRACTIONS = (0.0, 0.1, 0.5, 1.0, 1.01, 3.0)
MESSAGE_LENGTH = 16


def _case(network: str, kind: str, one_port: bool):
    """``(occupancy model, spec at rate 0)`` of one seeded case."""
    if network == "mesh4x4":
        topo = MeshTopology(4, 4)
        routing = MeshRouting(topo)
        sets = random_multicast_sets(routing, 5, 3, mode="per_node")
    else:
        n = int(network[len("quarc"):])
        topo = QuarcTopology(n)
        routing = QuarcRouting(topo)
        sets = random_multicast_sets(routing, max(3, n // 4), 5)
    model = AnalyticalModel(topo, routing, one_port=one_port, recursion="occupancy")
    if kind == "unicast-only":
        spec = TrafficSpec(0.0, 0.0, MESSAGE_LENGTH, {})
    elif kind == "multicast-only":
        spec = TrafficSpec(0.0, 1.0, MESSAGE_LENGTH, sets)
    else:
        # every third destination never receives a unicast
        weights = tuple(0.0 if t % 3 == 0 else 1.0 + t % 2 for t in range(topo.num_nodes))
        spec = TrafficSpec(0.0, 0.1, MESSAGE_LENGTH, sets, weights)
    return model, spec


def _solve_both(graph, flows, **kwargs):
    """``(native, numpy)`` results of one solve."""
    native = solve_service_times(graph, flows, MESSAGE_LENGTH, **kwargs)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(service, "_eq6", None)
        oracle = solve_service_times(graph, flows, MESSAGE_LENGTH, **kwargs)
    return native, oracle


def _assert_same(native, oracle, context) -> None:
    for name in ("mean_service", "waiting", "utilization"):
        a, b = getattr(native, name), getattr(oracle, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (name, context)
    for name in ("iterations", "converged", "saturated"):
        assert getattr(native, name) == getattr(oracle, name), (name, context)


@requires_eq6
@pytest.mark.parametrize("one_port", [False, True], ids=["all-port", "one-port"])
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("network", NETWORKS)
def test_native_loop_matches_numpy_bitwise(network, kind, one_port):
    model, spec = _case(network, kind, one_port)
    sat = model.saturation_rate(spec.with_rate(1e-6))
    for fraction in FRACTIONS:
        flows = build_flows(model.graph, spec.with_rate(fraction * sat))
        for recursion in ("paper", "occupancy"):
            for damping in (0.5, 1.0):
                for max_iterations in (0, 1, 7, 5000):
                    native, oracle = _solve_both(
                        model.graph, flows, recursion=recursion, damping=damping,
                        max_iterations=max_iterations,
                    )
                    _assert_same(
                        native, oracle, (fraction, recursion, damping, max_iterations)
                    )


@requires_eq6
def test_cases_reach_every_outcome():
    """The cases above converge, run to the cap and diverge to inf."""
    model, spec = _case("quarc8", "unicast-only", False)
    sat = model.saturation_rate(spec.with_rate(1e-6))

    def solve(fraction, max_iterations=5000):
        flows = build_flows(model.graph, spec.with_rate(fraction * sat))
        return solve_service_times(
            model.graph, flows, MESSAGE_LENGTH, recursion="occupancy",
            max_iterations=max_iterations,
        )

    light = solve(0.1)
    assert light.converged and 1 < light.iterations < 5000
    capped = solve(1.0)
    assert capped.iterations == 5000 and not capped.converged and not capped.saturated
    diverged = solve(3.0)
    assert diverged.saturated and diverged.iterations == 1
    assert np.isinf(diverged.mean_service).any()
    untouched = solve(0.5, max_iterations=0)
    assert untouched.iterations == 0 and not untouched.converged
    assert np.all(untouched.mean_service == MESSAGE_LENGTH)


def _random_arrays(rng, n, m, with_nan):
    """``fixed_point`` arrays over a random graph whose values include
    zeros, negatives, infinities and, ``with_nan``, NaN."""
    special = [0.0, -0.5, np.inf, -np.inf, 1e300] + ([np.nan] if with_nan else [])

    def values(size, scale):
        v = rng.random(size) * scale
        hit = rng.random(size) < 0.1
        v[hit] = rng.choice(special, hit.sum())
        return v

    lam = values(n, 0.05)
    lam[rng.random(n) < 0.3] = 0.0
    e_src = np.sort(rng.integers(0, n, m)).astype(np.int32)
    e_dst = rng.integers(0, n, m).astype(np.int32)
    e_p = values(m, 1.0)
    e_disc = values(m, 1.0)
    e_disc[rng.random(m) < 0.2] = 0.0
    x = values(n, 2.0 * MESSAGE_LENGTH)
    return x, lam, e_src, e_dst, e_p, e_disc


@requires_eq6
@pytest.mark.parametrize("trial", range(40))
def test_native_loop_matches_numpy_on_random_arrays(trial):
    """Bits are equal for any input without NaN, including the NaNs the
    loop makes itself (inf - inf, 0 * inf).  Where a NaN is fed in, a sum
    of two NaNs keeps the sign of whichever operand the machine code puts
    first, so there only the NaN positions must agree."""
    rng = np.random.default_rng(0xE06 + trial)
    n = int(rng.integers(1, 40))
    with_nan = trial % 4 == 3
    arrays = _random_arrays(rng, n, int(rng.integers(0, 3 * n)), with_nan)
    msg = float(rng.choice([1.0, 4.0, 16.0]))
    base, hop_cost = (0.0, 1.0) if trial % 2 else (msg, 0.0)
    damping = float(rng.choice([0.5, 1.0, 0.3]))
    max_iterations = int(rng.choice([0, 1, 7, 5000]))
    scalars = (msg, base, hop_cost, 1e-9, max_iterations, damping)
    x_native, x_numpy = arrays[0].copy(), arrays[0].copy()
    got = service._eq6.fixed_point(x_native, *arrays[1:], *scalars)
    want = service._fixed_point_numpy(x_numpy, *arrays[1:], *scalars)
    assert got == want
    if with_nan:
        nan = np.isnan(x_numpy)
        assert np.array_equal(np.isnan(x_native), nan)
        x_native, x_numpy = x_native[~nan], x_numpy[~nan]
    assert x_native.tobytes() == x_numpy.tobytes()


def _valid_arrays():
    x = np.full(3, 4.0)
    lam = np.array([0.01, 0.02, 0.0])
    e_src = np.array([0, 1], dtype=np.int32)
    e_dst = np.array([1, 2], dtype=np.int32)
    return [x, lam, e_src, e_dst, np.ones(2), np.ones(2)]


SCALARS = (4.0, 0.0, 1.0, 1e-9, 100, 0.5)


@requires_eq6
def test_valid_arrays_are_accepted():
    arrays = _valid_arrays()
    assert service._eq6.fixed_point(*arrays, *SCALARS) == service._fixed_point_numpy(
        *_valid_arrays(), *SCALARS
    )


@requires_eq6
@pytest.mark.parametrize(
    "slot, value",
    [
        (1, np.array([0.01, 0.02])),  # lam shorter than x
        (3, np.array([1], dtype=np.int32)),  # edge_dst shorter than edge_src
        (4, np.ones(3)),  # edge_prob longer
        (5, np.ones(1)),  # edge_discount shorter
        (2, np.array([0, 3], dtype=np.int32)),  # source past the last channel
        (3, np.array([1, -1], dtype=np.int32)),  # negative destination
        (3, np.array([1, 2**31 - 1], dtype=np.int32)),
    ],
    ids=["lam", "dst-length", "prob-length", "disc-length", "src-range", "dst-negative",
         "dst-huge"],
)
def test_bad_lengths_and_indices_raise_value_error(slot, value):
    arrays = _valid_arrays()
    arrays[slot] = value
    before = arrays[0].copy()
    with pytest.raises(ValueError):
        service._eq6.fixed_point(*arrays, *SCALARS)
    assert arrays[0].tobytes() == before.tobytes()


@requires_eq6
@pytest.mark.parametrize(
    "slot, value",
    [
        (2, np.array([0, 1], dtype=np.int64)),
        (1, np.array([0.01, 0.02, 0.0], dtype=np.float32)),
        (4, np.ones((1, 2))),
        (0, np.full(3, 4.0).astype(">f8")),
        (5, [1.0, 1.0]),
    ],
    ids=["int64-index", "float32", "two-dimensional", "big-endian", "list"],
)
def test_wrong_array_types_raise_type_error(slot, value):
    arrays = _valid_arrays()
    arrays[slot] = value
    with pytest.raises(TypeError):
        service._eq6.fixed_point(*arrays, *SCALARS)


@requires_eq6
def test_strided_or_read_only_x_is_refused():
    arrays = _valid_arrays()
    arrays[0] = np.full(6, 4.0)[::2]
    with pytest.raises((ValueError, BufferError)):
        service._eq6.fixed_point(*arrays, *SCALARS)
    arrays[0] = np.full(3, 4.0)
    arrays[0].flags.writeable = False
    with pytest.raises((ValueError, BufferError)):
        service._eq6.fixed_point(*arrays, *SCALARS)


# --------------------------------------------------------------------- #
# python -m repro kernels


def test_kernels_cli_reports_the_native_loop_disabled():
    out = _kernels_report("", no_cext=True)
    assert "native Eq. 6 fixed point: NOT built -- disabled by REPRO_NO_CEXT" in out


def test_kernels_cli_reports_the_native_loop_unbuilt():
    out = _kernels_report("sys.modules['repro.core._eq6'] = None")
    assert "circular import" not in out
    assert "native Eq. 6 fixed point: NOT built -- extension not built" in out
