import math

import mpmath as mp
import oracles
import pytest

from eta_forge import (
    ConvergenceError,
    DomainError,
    Family,
    FiniteEtaSpec,
    PrecisionContext,
    ScanConfig,
    ZeroRecord,
    compare_to_global,
    evaluate,
    planck_resolution,
    proto_cloud,
    scan_line,
)
from eta_forge import finite_eta, proto_zeros
from eta_forge.proto_zeros import default_step, is_prime

CTX = PrecisionContext()
H1 = FiniteEtaSpec(Family.HASSE, 1)
SPACING = 2.0 * math.pi / math.log(2.0)  # eta_1 minima spacing


# ---------------------------------------------------------------------------
# planck resolution
# ---------------------------------------------------------------------------

def test_planck_examples():
    info = planck_resolution(2)
    assert abs(info.hbar_p - math.log(2) / (2 * math.pi)) < 1e-15
    assert abs(info.hbar_p - 0.1103178) < 1e-6
    assert abs(info.resolution - 9.0647) < 1e-3
    info3 = planck_resolution(3)
    assert abs(info3.hbar_p - 0.1748) < 1e-3
    assert abs(info3.resolution - 5.7192) < 1e-3


def test_planck_rejects_composite():
    with pytest.raises(DomainError):
        planck_resolution(4)
    with pytest.raises(DomainError):
        planck_resolution(1)


def test_planck_large_prime():
    p = 2_147_483_647  # 2^31 - 1, prime
    info = planck_resolution(p)
    assert abs(info.hbar_p * info.resolution - 1.0) < 1e-12


def test_primality_helper():
    assert [q for q in range(2, 30) if is_prime(q)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(2_147_483_647 - 1)


def test_primality_is_exact_or_refused():
    # the least strong pseudoprimes to the first 12 and the first 13 prime bases (Sorenson and
    # Webster 2015): 41 rejects the first, and the second is refused
    assert 399_165_290_221 * 798_330_580_441 == 318_665_857_834_031_151_167_461
    assert not is_prime(318_665_857_834_031_151_167_461)
    with pytest.raises(DomainError):
        planck_resolution(318_665_857_834_031_151_167_461)
    with pytest.raises(DomainError):
        is_prime(3_317_044_064_679_887_385_961_981)
    assert is_prime(2 ** 61 - 1)


def test_resolution_equals_eta1_spacing():
    # cross-module: 1/hbar_2 equals the eta_1 proto-zero spacing 2 pi / ln 2
    assert abs(planck_resolution(2).resolution - SPACING) < 1e-9


# ---------------------------------------------------------------------------
# scan configuration
# ---------------------------------------------------------------------------

def test_scan_config_validation():
    with pytest.raises(DomainError):
        ScanConfig(H1, 0.5, 3.0, 1.0, 0.05)   # reversed interval
    with pytest.raises(DomainError):
        ScanConfig(H1, 0.5, 1.0, 3.0, -0.1)   # bad step
    with pytest.raises(DomainError):
        # coarser than resolution/10 of the largest participating prime (2)
        ScanConfig(H1, 0.5, 1.0, 30.0, 1.0)


def test_scan_config_refuses_an_oversized_grid():
    # constructed only: a config that passed would allocate the whole grid
    spec = FiniteEtaSpec(Family.HASSE, 4)
    with pytest.raises(DomainError, match="exceeds the limit"):
        ScanConfig(spec, 0.5, 0.0, 1e15, default_step(spec))
    with pytest.raises(DomainError, match="exceeds the limit"):
        ScanConfig(spec, 0.5, 0.0, 1.0, 5e-324)        # (t_max - t_min) / step = inf
    with pytest.raises(DomainError, match="exceeds the limit"):
        ScanConfig(spec, 0.5, -1e308, 1e308, 0.05)     # t_max - t_min = inf
    ScanConfig(spec, 0.5, 0.0, 999_999 * 0.0625, 0.0625)  # exactly 10^6 points


def test_default_step_scales_with_prime():
    s1 = default_step(FiniteEtaSpec(Family.HASSE, 1))   # prime 2
    s4 = default_step(FiniteEtaSpec(Family.HASSE, 4))   # prime 5
    assert abs(s1 - planck_resolution(2).resolution / 20) < 1e-12
    assert abs(s4 - planck_resolution(5).resolution / 20) < 1e-12
    with pytest.raises(DomainError):
        default_step(FiniteEtaSpec(Family.HASSE, 0))


# ---------------------------------------------------------------------------
# scanning
# ---------------------------------------------------------------------------

def test_eta1_grid_minima_at_known_spacing():
    for sigma in (0.5, 0.25):
        cfg = ScanConfig(H1, sigma, 1.0, 5.2 * SPACING, 0.05)
        recs = scan_line(cfg, CTX)
        assert len(recs) == 5
        for k, rec in enumerate(recs, start=1):
            assert abs(rec.t - k * SPACING) <= 10 * (0.05 / 100)


def test_eta0_scan_is_empty():
    cfg = ScanConfig(FiniteEtaSpec(Family.HASSE, 0), 0.5, 1.0, 30.0, 0.05)
    assert scan_line(cfg, CTX) == []


def test_scanner_soundness_bracket_endpoints():
    cfg = ScanConfig(H1, 0.5, 1.0, 30.0, 0.05)
    for rec in scan_line(cfg, CTX):
        def mag(t):
            from eta_forge import evaluate
            return abs(evaluate(H1, complex(0.5, t), CTX).value.to_complex())
        assert rec.magnitude <= mag(rec.t - 0.05) and rec.magnitude <= mag(rec.t + 0.05)


def test_grid_halving_stability():
    cfg1 = ScanConfig(H1, 0.5, 5.0, 25.0, 0.08)
    cfg2 = ScanConfig(H1, 0.5, 5.0, 25.0, 0.04)
    r1 = scan_line(cfg1, CTX)
    r2 = scan_line(cfg2, CTX)
    assert len(r1) == len(r2)
    for a, b in zip(r1, r2):
        assert abs(a.t - b.t) <= 0.08 / 100 + 0.04 / 100


def test_scan_jobs_do_not_change_output():
    cfg = ScanConfig(H1, 0.5, 1.0, 30.0, 0.05)
    seq = scan_line(cfg, CTX, jobs=1)
    par = scan_line(cfg, CTX, jobs=4)
    assert [(r.t, r.magnitude, r.decay) for r in seq] == \
           [(r.t, r.magnitude, r.decay) for r in par]


def test_eta1_decay_estimate_sign():
    # the eta_1 zeros sit at sigma = 0: from sigma = 1/2 the deepening
    # offset is positive and first-order-Newton sized
    cfg = ScanConfig(H1, 0.5, 8.0, 10.0, 0.05)
    rec = scan_line(cfg, CTX)[0]
    assert 0.3 < rec.decay < 0.8


def _dense_minima(n, sigma, t_lo, t_hi, step=0.002):
    """Independent brute-force reference for strict grid minima."""
    import cmath
    count = int((t_hi - t_lo) / step) + 1
    ts = [t_lo + i * step for i in range(count)]
    vals = [abs(sum((-1) ** k * math.comb(n, k)
                    * cmath.exp(-complex(sigma, t) * math.log(k + 1))
                    for k in range(n + 1))) for t in ts]
    return [ts[i] for i in range(1, count - 1)
            if vals[i] < vals[i - 1] and vals[i] < vals[i + 1]]


def test_scan_n8_matches_dense_oracle():
    # dense evaluation shows |eta_8(1/2+it)| has no interior minimum on
    # [10, 16]; the first ones appear near 20.93 and 26.27
    spec = FiniteEtaSpec(Family.HASSE, 8)
    assert _dense_minima(8, 0.5, 10.0, 16.0) == []
    cfg = ScanConfig(spec, 0.5, 10.0, 16.0, 0.01)
    assert scan_line(cfg, CTX) == []

    oracle = _dense_minima(8, 0.5, 19.0, 28.0)
    cfg = ScanConfig(spec, 0.5, 19.0, 28.0, 0.01)
    recs = scan_line(cfg, CTX)
    assert len(recs) == len(oracle) == 2
    for rec, t_ref in zip(recs, oracle):
        assert abs(rec.t - t_ref) < 0.01


def test_scan_n6_single_minimum_near_zeta_zero_window():
    # at n = 6 the window [10, 16] does contain one minimum (t ~ 14.356)
    oracle = _dense_minima(6, 0.5, 10.0, 16.0)
    assert len(oracle) == 1
    cfg = ScanConfig(FiniteEtaSpec(Family.HASSE, 6), 0.5, 10.0, 16.0, 0.01)
    recs = scan_line(cfg, CTX)
    assert len(recs) == 1
    assert abs(recs[0].t - oracle[0]) < 0.01


def test_scan_far_up_the_line_stays_on_the_fast_tier(monkeypatch):
    # beyond t = 40 a bound that grows with |s| would certify few points of
    # this line; the double table's exact phase must certify nearly all
    # tables are counted where they are made, so the classes stay classes
    attempts, escalations = [], []
    for cls, made in ((finite_eta._FastPowers, attempts), (finite_eta._ExtPowers, escalations)):
        def counting(self, *args, init=cls.__init__, made=made):
            made.append(args)
            init(self, *args)
        monkeypatch.setattr(cls, "__init__", counting)
    spec = FiniteEtaSpec(Family.HASSE, 20)
    records = scan_line(ScanConfig(spec, 0.5, 40.0, 100.0, default_step(spec)), CTX)
    assert len(records) == 3
    # the 563 grid points step their double table up the line and fill one where a stepped
    # value misses: 46 fills and 3 rotation tables, plus one table for each record's
    # polish model, evaluate and derivative
    grid = int((100.0 - 40.0) / default_step(spec) + 1e-9) + 1
    assert grid == 563
    assert len(attempts) == 46 + 3 + 3 * len(records)
    assert escalations == []


def test_cancelling_stretch_takes_one_table_per_run(monkeypatch):
    # all 122 grid points of this line below t = 14 cancel too deeply for the double
    # table; they form one run, served by one big-float table filled at its first point
    # and stepped through the rest, with one rotation table per grid increment
    tables = []
    raw_extended = finite_eta._ExtPowers

    def counting_extended(*args):
        tables.append(args)
        return raw_extended(*args)

    monkeypatch.setattr(finite_eta, "_ExtPowers", counting_extended)
    spec = FiniteEtaSpec(Family.HASSE, 20)
    scan_line(ScanConfig(spec, 0.5, 1.0, 14.0, default_step(spec)), CTX)
    fills = [s for s, _ in tables if s.real]
    assert fills == [complex(0.5, 1.0)] and len(tables) == 8


@pytest.mark.parametrize("n, t_max, expected", [
    (12, 35.0, [("32.47811431041759", "343.329147230989", "-0.41936211047280086")]),
    (20, 100.0, [("55.72898583097281", "10215.64770370198", "-0.26661267098339797"),
                 ("62.0160528168895", "18491.05949100007", "-0.6258609392996146"),
                 ("90.49150809165904", "119799.14276203969", "-0.43642869821950875")]),
])
def test_scan_records_are_frozen(n, t_max, expected):
    # the grid values of a cancelling stretch come from a big-float table stepped along
    # its run, the polish from Newton on a model of the double table, the magnitude and
    # the decay from evaluate and derivative; each record's magnitude is that of a 200-bit
    # sum, within the record's own bound, which meets the target
    spec = FiniteEtaSpec(Family.HASSE, n)
    records = scan_line(ScanConfig(spec, 0.5, 1.0, t_max, default_step(spec)), CTX)
    assert [(repr(r.t), repr(r.magnitude), repr(r.decay)) for r in records] == expected
    for r in records:
        ref = abs(oracles.eta_hasse_highprec(n, complex(0.5, r.t), prec=200))
        assert abs(r.magnitude - ref) <= 1e-13 * ref
        assert abs(r.magnitude - ref) <= r.magnitude_err <= 1e-13 * r.magnitude


def _line_minimum(n: int, sigma: float, t: float, oracle=oracles.eta_hasse_highprec):
    """The minimum of |eta_n(sigma + i t)| nearest t, at 100 bits: the root of
    d|f|^2/dt / (2 |f|^2) = Re(i f' / f) along the line."""
    def slope(x):
        s = mp.mpc(sigma, x)
        return (1j * oracle(n, s, prec=100, order=1) / oracle(n, s, prec=100)).real
    with mp.workprec(100):
        return mp.findroot(slope, mp.mpf(t))


@pytest.mark.parametrize("n, t_min, t_max", [
    (4, 2.9187959608315115, 34.59290138569395),  # the n <= 12 lines of the benchmark's
    (6, 1.8557070972448675, 34.356163355079524),  # finite-sums workload, seed 1
    (8, 2.544486718671145, 34.0938479759166),
    (10, 1.050256401707738, 34.37722097068338),
    (12, 1.1727665378769645, 34.394759326870265),
])
def test_polish_finds_the_minimum(n, t_min, t_max):
    # golden section stopped at a hundredth of the grid step; Newton on the model
    # lands on the minimum
    spec = FiniteEtaSpec(Family.HASSE, n)
    records = scan_line(ScanConfig(spec, 0.5, t_min, t_max, default_step(spec)), CTX)
    assert records
    for r in records:
        assert abs(r.t - _line_minimum(n, 0.5, r.t)) <= 1e-9, r.t


def test_polish_keeps_the_grid_point_when_newton_fails(monkeypatch):
    def failing(table_at, t0, max_step, radius):
        raise ConvergenceError("escaped capture interval", best=t0 + radius)

    spec = FiniteEtaSpec(Family.HASSE, 6)
    cfg = ScanConfig(spec, 0.5, 10.0, 16.0, 0.01)
    polished = scan_line(cfg, CTX)
    monkeypatch.setattr(proto_zeros, "_line_newton", failing)
    kept = scan_line(cfg, CTX)
    assert len(kept) == len(polished) == 1
    grid = [cfg.t_min + i * cfg.step for i in range(601)]
    assert kept[0].t in grid and abs(kept[0].t - polished[0].t) <= cfg.step
    assert kept[0].magnitude == abs(evaluate(spec, complex(0.5, kept[0].t), CTX).value.to_complex())


def test_polish_finds_the_minimum_beyond_the_double_range():
    # the terms of HSTAR 512 at sigma = -1/2 sum past the double range, so the grid takes
    # big floats and the polish's model is scaled by 2^-k: it still lands on the minimum
    spec = FiniteEtaSpec(Family.HSTAR, 512)
    cfg = ScanConfig(spec, -0.5, 8.0, 9.0, default_step(spec))
    records = scan_line(cfg, CTX)
    assert len(records) == 1
    assert abs(records[0].t - _line_minimum(512, -0.5, records[0].t,
                                            oracles.eta_hstar_highprec)) <= 1e-9
    value = evaluate(spec, complex(-0.5, records[0].t), CTX).value.to_complex()
    assert records[0].magnitude == abs(value) > 1e307


def test_line_beyond_the_double_range_stays_on_its_models(monkeypatch):
    # every grid point misses the double table (its magnitudes sum past the double range);
    # the big-float tables stepped along the runs serve every point, and the only big-float
    # ladders left are each record's evaluate and derivative
    calls = []
    raw_evaluate = finite_eta._evaluate
    monkeypatch.setattr(finite_eta, "_evaluate", lambda *a: calls.append(a) or raw_evaluate(*a))
    spec = FiniteEtaSpec(Family.HSTAR, 512)
    records = scan_line(ScanConfig(spec, -0.5, 4.0, 40.0, default_step(spec)), CTX)
    assert len(records) == 8
    assert len(calls) == 2 * len(records)

    def slope(t):  # d|f|^2/dt / (2 |f|^2) along the line, at 100 bits
        s = mp.mpc(-0.5, t)
        return (1j * oracles.eta_hstar_highprec(512, s, 100, 1)
                / oracles.eta_hstar_highprec(512, s, 100)).real

    for r in records:  # each within 1e-9 of the minimum of |eta|
        assert slope(r.t - 1e-9) < 0 < slope(r.t + 1e-9), r.t


def test_scans_refuse_a_requested_precision():
    spec = FiniteEtaSpec(Family.HASSE, 4)
    ext = PrecisionContext.extended(120)
    with pytest.raises(DomainError, match="fast-tier only"):
        scan_line(ScanConfig(spec, 0.5, 5.0, 12.0, default_step(spec)), ext)
    with pytest.raises(DomainError, match="fast-tier only"):
        proto_cloud(2, 0.5, 9.06, 1.0, ext)


# ---------------------------------------------------------------------------
# clouds and comparison
# ---------------------------------------------------------------------------

def test_cloud_single_n():
    recs = proto_cloud(1, 0.5, 9.06, 1.0, CTX)
    assert len(recs) == 1
    assert abs(recs[0].t - SPACING) < 1e-3


def test_cloud_degenerate_interval_empty():
    assert proto_cloud(3, 0.5, 14.0, 0.0, CTX) == []


def test_cloud_rejects_bad_nmax():
    with pytest.raises(DomainError):
        proto_cloud(0, 0.5, 14.0, 1.0, CTX)


def test_cloud_multiple_n_tagged():
    recs = proto_cloud(6, 0.5, 14.1347, 2.0, CTX)
    ns = {r.spec.n for r in recs}
    assert len(ns) >= 3  # several finite etas contribute minima here
    assert all(12.13 <= r.t <= 16.14 for r in recs)


def test_compare_to_global_arithmetic():
    zero = ZeroRecord(t=14.1347, residual_eta=0.0, iterations=0)
    rec = proto_cloud(1, 0.5, 14.0, 1.0, CTX)
    # nearest eta_1 minimum to the zero is 2*SPACING = 18.129...; build
    # a record at 14.0 by hand to pin the arithmetic
    from eta_forge import ProtoZeroRecord
    hand = [ProtoZeroRecord(spec=H1, sigma=0.5, t=14.0, magnitude=0.1, decay=0.0)]
    cmpres = compare_to_global(hand, zero)
    assert abs(cmpres.per_n_distance[1] - 0.1347) < 1e-9
    assert abs(cmpres.centroid_t - 14.0) < 1e-12


def test_compare_to_global_weighted_centroid():
    from eta_forge import ProtoZeroRecord
    zero = ZeroRecord(t=10.0, residual_eta=0.0, iterations=0)
    recs = [
        ProtoZeroRecord(spec=FiniteEtaSpec(Family.HASSE, 1), sigma=0.5, t=9.0, magnitude=0.1, decay=0.0),
        ProtoZeroRecord(spec=FiniteEtaSpec(Family.HASSE, 2), sigma=0.5, t=12.0, magnitude=0.1, decay=0.0),
    ]
    res = compare_to_global(recs, zero)
    want = (0.25 * 9.0 + 0.125 * 12.0) / 0.375
    assert abs(res.centroid_t - want) < 1e-12
    assert res.per_n_distance == {1: 1.0, 2: 2.0}


def test_compare_to_global_empty_errors():
    zero = ZeroRecord(t=14.1347, residual_eta=0.0, iterations=0)
    with pytest.raises(DomainError):
        compare_to_global([], zero)
