"""Golden values of the analytical model, compared bit for bit.

Sweep rates are fractions of ``saturation_rate`` and feed every
``SimTask.task_key()``, so one flipped bisection step or one reordered
floating-point sum would strand every cached grid result.  The literals
in :data:`GOLDEN` were produced by the per-route reference
implementation of the model (one ``Route`` walk per pair and per call)
and are compared with ``==``: any rewrite of the model must reproduce
them exactly, not approximately.

Regenerate only for an intended change of the model's numbers::

    PYTHONPATH=src python -c "import sys; sys.path.insert(0, 'tests'); \\
        import test_model_golden as g; print(g.render_golden())"
"""

from __future__ import annotations

import hashlib
import math
import pprint

import numpy as np
import pytest

from repro.core import AnalyticalModel, TrafficSpec, service
from repro.core.explain import explain_multicast
from repro.experiments.config import paper_grid
from repro.experiments.runner import model_series
from repro.routing import MeshRouting, QuarcRouting
from repro.topology import MeshTopology, QuarcTopology
from repro.workloads.destsets import random_multicast_sets
from repro.workloads.patterns import hotspot_weights

#: the benchmark's paper-grid fractions: 4 points up to 0.8 of saturation
BENCH_FRACTIONS = tuple((k + 1) * 0.8 / 4 for k in range(4))

#: panel id -> load fractions the golden series is taken at (None: the
#: panel's own eight)
PANELS = {
    "fig6-N16-M32-a05": None,
    "fig7-N16-M32-a05": None,
    "fig6-N64-M32-a10": BENCH_FRACTIONS,
}

#: fractions of the occupancy saturation rate the spec series are taken at
SPEC_FRACTIONS = (0.3, 0.6, 0.9)


def _config(exp_id: str):
    return next(c for c in paper_grid() if c.exp_id == exp_id)


def panel_series(exp_id: str) -> tuple:
    """``(saturation_rate, ((rate, paper uni, paper mc, occ uni, occ mc), ...))``."""
    config = _config(exp_id)
    fractions = PANELS[exp_id]
    if fractions is not None:
        config = config.scaled(load_fractions=fractions)
    sat, _rates, points = model_series(config)
    return sat, tuple(
        (
            p.rate,
            p.model_paper_unicast,
            p.model_paper_multicast,
            p.model_occupancy_unicast,
            p.model_occupancy_multicast,
        )
        for p in points
    )


def _spec_network(name: str):
    """``(topology, routing, spec at rate 0, one_port)`` per named spec."""
    if name.startswith("mesh"):
        topo = MeshTopology(4, 4)
        routing = MeshRouting(topo)
        sets = random_multicast_sets(routing, 5, 11, mode="per_node")
        return topo, routing, TrafficSpec(0.0, 0.1, 24, sets), False
    topo = QuarcTopology(16)
    routing = QuarcRouting(topo)
    sets = random_multicast_sets(routing, 6, 7)
    if name == "quarc16-hotspot":
        weights = hotspot_weights(16, [0], 8.0)
        return topo, routing, TrafficSpec(0.0, 0.05, 32, sets, weights), False
    if name == "quarc16-zero-weights":
        # destinations 3, 4 and 10 never receive unicasts: their routes
        # carry no traffic and are skipped, not added at rate zero
        weights = tuple(0.0 if t in (3, 4, 10) else 1.0 + t % 3 for t in range(16))
        return topo, routing, TrafficSpec(0.0, 0.05, 32, sets, weights), False
    assert name == "quarc16-one-port"
    return topo, routing, TrafficSpec(0.0, 0.05, 32, sets), True


SPECS = ("quarc16-hotspot", "quarc16-zero-weights", "quarc16-one-port", "mesh4x4")


def _array_digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()[:24]


def spec_series(name: str) -> tuple:
    """Saturation rate, both recursions' latencies at
    :data:`SPEC_FRACTIONS`, and a digest of every per-channel array
    (``x``, ``W``, ``rho``, arrival rates) at the middle fraction."""
    topo, routing, spec0, one_port = _spec_network(name)
    paper = AnalyticalModel(topo, routing, one_port=one_port, recursion="paper")
    occ = AnalyticalModel(topo, routing, one_port=one_port, recursion="occupancy")
    sat = occ.saturation_rate(spec0.with_rate(1e-6))
    rows = []
    arrays = []
    for f in SPEC_FRACTIONS:
        spec = spec0.with_rate(f * sat)
        mp, mo = paper.evaluate(spec), occ.evaluate(spec)
        rows.append(
            (
                spec.message_rate,
                mp.unicast_latency,
                mp.multicast_latency,
                mo.unicast_latency,
                mo.multicast_latency,
                mp.max_utilization,
                mo.max_utilization,
            )
        )
        if f == SPEC_FRACTIONS[1]:
            for m in (mp, mo):
                s = m.service
                arrays += [s.mean_service, s.waiting, s.utilization, s.flows.arrival_rate]
    return sat, tuple(rows), _array_digest(arrays)


def explained(name: str) -> tuple:
    """Per-source decomposition and the naive baseline at 0.6 of saturation."""
    topo, routing, spec0, one_port = _spec_network(name)
    occ = AnalyticalModel(topo, routing, one_port=one_port, recursion="occupancy")
    spec = spec0.with_rate(0.6 * occ.saturation_rate(spec0.with_rate(1e-6)))
    source = min(s for s, d in spec.multicast_sets.items() if d)
    b = explain_multicast(occ, spec, source)
    return (
        b.latency,
        tuple(w.total_waiting for w in b.worms),
        tuple(c.waiting for w in b.worms for c in w.channels),
        occ.evaluate_naive_multicast(spec),
    )


def compute_golden() -> dict:
    out: dict = {}
    for exp_id in PANELS:
        out[exp_id] = panel_series(exp_id)
    for name in SPECS:
        out[name] = spec_series(name)
        out[f"{name}/explain"] = explained(name)
    return out


def render_golden() -> str:
    """The :data:`GOLDEN` literal for this module (floats round-trip
    exactly through ``repr``)."""
    return "GOLDEN: dict = " + pprint.pformat(compute_golden(), width=88, sort_dicts=False)


#: what ``repr`` prints for an infinite float (a saturated recursion)
inf = math.inf

GOLDEN: dict = {'fig6-N16-M32-a05': (0.00766754150390625,
                      ((0.000766754150390625,
                        np.float64(36.53657714969729),
                        39.56128801420668,
                        np.float64(36.390762178201385),
                        39.16786930704295),
                       (0.00153350830078125,
                        np.float64(37.597308895776074),
                        42.4671104049493,
                        np.float64(37.27474974010274),
                        41.59490656401441),
                       (0.002300262451171875,
                        np.float64(38.816053551347395),
                        45.8124142893162,
                        np.float64(38.27456221946111),
                        44.344429422316956),
                       (0.0030670166015625,
                        np.float64(40.24241056883587),
                        49.737012729308724,
                        np.float64(39.42196699437173),
                        47.505783097140366),
                       (0.003833770751953125,
                        np.float64(41.95343394185544),
                        54.459722811588534,
                        np.float64(40.763690919399764),
                        51.211087747753815),
                       (0.00460052490234375,
                        np.float64(44.07916751692498),
                        60.353970503445574,
                        np.float64(42.37277475194256),
                        55.66845604427451),
                       (0.005367279052734375,
                        np.float64(46.869017278798566),
                        68.14899454785804,
                        np.float64(44.37372074061091),
                        61.236783213565246),
                       (0.006134033203125,
                        np.float64(50.927214910287),
                        79.67209106584372,
                        np.float64(47.00962749560176),
                        68.63041940226265))),
 'fig7-N16-M32-a05': (0.008675575256347656,
                      ((0.0008675575256347657,
                        np.float64(36.49990651123866),
                        38.4944510076533,
                        np.float64(36.36199350647292),
                        38.26506490454328),
                       (0.0017351150512695313,
                        np.float64(37.51372875562195),
                        40.199860192786794,
                        np.float64(37.20993052964681),
                        39.68862941672713),
                       (0.002602672576904297,
                        np.float64(38.67134907197108),
                        42.17718784644897,
                        np.float64(38.16387898734512),
                        41.311270246464986),
                       (0.0034702301025390627,
                        np.float64(40.01613804842555),
                        44.517585196176775,
                        np.float64(39.25181820389933),
                        43.1910439023709),
                       (0.004337787628173828,
                        np.float64(41.614817819854935),
                        47.36644575044828,
                        np.float64(40.51455070966369),
                        45.41526999101858),
                       (0.005205345153808594,
                        np.float64(43.57893750980142),
                        50.97798486894931,
                        np.float64(42.015314990130086),
                        48.1244468910792),
                       (0.006072902679443359,
                        np.float64(46.1210157958269),
                        55.864823720429165,
                        np.float64(43.861144181514995),
                        51.567633808043404),
                       (0.006940460205078125,
                        np.float64(49.75786530301865),
                        63.36898837306572,
                        np.float64(46.26065075122666),
                        56.25940560015769))),
 'fig6-N64-M32-a10': (0.0012903213500976562,
                      ((0.00025806427001953127,
                        np.float64(44.58661870217124),
                        57.02844689203491,
                        np.float64(43.190993383477604),
                        53.23874175963315),
                       (0.0005161285400390625,
                        np.float64(48.925427400372634),
                        68.82013775498068,
                        np.float64(45.18434353885083),
                        58.62265914469562),
                       (0.0007741928100585938,
                        np.float64(56.800467370016),
                        90.53129948958569,
                        np.float64(47.88608332063831),
                        65.94094426484662),
                       (0.001032257080078125,
                        inf,
                        inf,
                        np.float64(52.05649526632273),
                        77.31644639964573))),
 'quarc16-hotspot': (0.006420135498046875,
                     ((0.0019260406494140624,
                       np.float64(38.85582744737385),
                       43.75953491370396,
                       np.float64(38.34116141879672),
                       42.669988710244844,
                       0.20189151687782578,
                       0.19283935018167594),
                      (0.003852081298828125,
                       np.float64(44.67653528026946),
                       55.535557984588536,
                       np.float64(42.94103039363062),
                       51.91816203799556,
                       0.40804873572224565,
                       0.3891689710780682),
                      (0.005778121948242188,
                       np.float64(66.39967254836625),
                       104.39216152724359,
                       np.float64(55.46281722342705),
                       77.93607596964247,
                       0.6235652422330241,
                       0.5914158178085711)),
                     '1351acde516033e213b496e4'),
 'quarc16-hotspot/explain': (46.119335239367516,
                             (np.float64(4.719991890655333),
                              np.float64(4.968183681457104),
                              np.float64(5.22336849155388)),
                             (0.7733444367904765,
                              np.float64(1.933304344517509),
                              np.float64(1.0080858854216164),
                              np.float64(1.0052572239257311),
                              0.0,
                              0.7515899354119351,
                              np.float64(1.639139135670672),
                              np.float64(0.8607086162958126),
                              np.float64(0.8584852831691473),
                              np.float64(0.8582607109095367),
                              0.0,
                              0.7822383212368254,
                              0.0,
                              np.float64(2.1636807655441497),
                              np.float64(1.1074212539934671),
                              np.float64(1.1700281507794383),
                              0.0),
                             np.float64(45.015350668409745)),
 'quarc16-zero-weights': (0.008015632629394531,
                          ((0.0024046897888183594,
                            np.float64(38.95277121548645),
                            45.20146746904802,
                            np.float64(38.40141238621525),
                            43.85064409127686,
                            0.14115151520263677,
                            0.131814991542858),
                           (0.004809379577636719,
                            np.float64(44.54760069488696),
                            58.9767477209374,
                            np.float64(42.78047716250738),
                            54.61108601471646,
                            0.2983776272590759,
                            0.2763588513205056),
                           (0.007214069366455078,
                            np.float64(61.09886013228623),
                            101.96810500173203,
                            np.float64(52.298938758209616),
                            78.51253690211342,
                            0.520725898946086,
                            0.45641195680450664)),
                          '0c01fd99491349de2e9e7c2a'),
 'quarc16-zero-weights/explain': (54.29908325670638,
                                  (np.float64(8.336753899761879),
                                   np.float64(11.019692928828764),
                                   np.float64(8.764196116123355)),
                                  (0.906341904064446,
                                   np.float64(4.3665054028124946),
                                   np.float64(1.5645245805391703),
                                   np.float64(1.4993820123457686),
                                   0.0,
                                   1.2876838557708643,
                                   np.float64(4.001226491014541),
                                   np.float64(2.3856811264973556),
                                   np.float64(1.882572186422885),
                                   np.float64(1.4625292691231182),
                                   0.0,
                                   1.0926085759303297,
                                   0.0,
                                   np.float64(2.970207879807685),
                                   np.float64(1.9949570534820258),
                                   np.float64(2.706422606903314),
                                   0.0),
                                  np.float64(46.981811187048116)),
 'quarc16-one-port': (0.008065223693847656,
                      ((0.002419567108154297,
                        np.float64(40.60501316056214),
                        136.26211464896735,
                        np.float64(39.63911444969238),
                        124.74493227181777,
                        0.11369015683444786,
                        0.10532554348995815),
                       (0.004839134216308594,
                        np.float64(49.76243452781778),
                        164.4679215903364,
                        np.float64(46.416022927298414),
                        146.2081065194779,
                        0.24194783432802822,
                        0.2220924176613739),
                       (0.007258701324462891,
                        np.float64(84.13018693140003),
                        262.91358020084306,
                        np.float64(63.3802142854666),
                        197.16579128413065,
                        0.4556775725568214,
                        0.3714797606469802)),
                      '0ae0104ec908f2563131f3f4'),
 'quarc16-one-port/explain': (146.20810651947784,
                              (np.float64(13.013204037004854),
                               np.float64(51.9209283304028),
                               np.float64(89.5904517732811)),
                              (4.992808658648156,
                               np.float64(3.863560889733036),
                               np.float64(2.0784172443118307),
                               np.float64(2.0784172443118307),
                               0.0,
                               4.992808658648156,
                               np.float64(3.335637573805773),
                               np.float64(1.8083309923928732),
                               np.float64(1.8083309923928732),
                               np.float64(1.8083309923928732),
                               0.0,
                               4.992808658648156,
                               0.0,
                               np.float64(4.105830384468771),
                               np.float64(2.0784172443118307),
                               np.float64(2.0784172443118307),
                               0.0),
                              np.float64(88.92092833040282)),
 'mesh4x4': (0.01500256856282552,
             ((0.004500770568847656,
               np.float64(32.190262744059275),
               85.13256951280285,
               np.float64(31.16788461051273),
               76.20886086601605,
               0.19367387449161202,
               0.1819452723082958),
              (0.009001541137695312,
               np.float64(42.0157594254988),
               112.564285828718,
               np.float64(37.877698771807005),
               95.33271730907693,
               0.41197058733297426,
               0.37126171960466314),
              (0.013502311706542968,
               np.float64(157.7841028711001),
               406.9122077368373,
               np.float64(64.49441332810567),
               169.92767770381815,
               0.9106290258911428,
               0.6519877859671647)),
             '1c622ede03083cdb9036cf73'),
 'mesh4x4/explain': (122.32873340077256,
                     (np.float64(9.13215853750806),
                      np.float64(12.577272377318376),
                      np.float64(40.50145861392024),
                      np.float64(77.49024796437475)),
                     (1.3301445199193913,
                      np.float64(3.7515150032441977),
                      np.float64(2.853609869708693),
                      np.float64(1.196889144635777),
                      0.0,
                      6.2482185405357065,
                      0.0,
                      np.float64(3.1483268977674674),
                      np.float64(3.1807269390152024),
                      0.0,
                      6.2482185405357065,
                      0.0,
                      np.float64(3.667933550138905),
                      0.0,
                      6.2482185405357065,
                      0.0,
                      np.float64(3.667933550138905),
                      np.float64(1.6282956298641464),
                      np.float64(1.3243446752016952),
                      np.float64(3.450842522143034),
                      0.0),
                     np.float64(55.913398825717735))}


def _same(a, b) -> bool:
    """Exact equality, element by element; NaN equals NaN."""
    if isinstance(a, tuple):
        return isinstance(b, tuple) and len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, float) and math.isnan(a):
        return isinstance(b, float) and math.isnan(b)
    return type(a) is type(b) and a == b


@pytest.mark.parametrize("exp_id", list(PANELS))
def test_panel_series_bitwise(exp_id):
    got = panel_series(exp_id)
    assert _same(got, GOLDEN[exp_id]), (got, GOLDEN[exp_id])


@pytest.mark.parametrize("name", SPECS)
def test_spec_series_bitwise(name):
    got = spec_series(name)
    assert _same(got, GOLDEN[name]), (got, GOLDEN[name])


@pytest.mark.parametrize("name", SPECS)
def test_explain_and_naive_bitwise(name):
    got = explained(name)
    assert _same(got, GOLDEN[f"{name}/explain"]), (got, GOLDEN[f"{name}/explain"])


@pytest.fixture
def numpy_loop(monkeypatch):
    """Run the Eq. 6 fixed point on its numpy reference loop even where
    the compiled one is built."""
    if not service.native_fixed_point_status()[0]:
        pytest.skip("the tests above already ran the numpy loop")
    monkeypatch.setattr(service, "_eq6", None)


def test_golden_on_the_numpy_loop(numpy_loop):
    """The tests above ran the compiled loop where it is built; pin the
    numpy loop too, so both paths are checked on every build."""
    got = compute_golden()
    for key, want in GOLDEN.items():
        assert _same(got[key], want), (key, got[key], want)
