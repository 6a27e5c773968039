import math

import pytest

from eta_forge import (
    DomainError,
    Family,
    FiniteEtaSpec,
    PrecisionContext,
    ScanConfig,
    ZeroRecord,
    compare_to_global,
    planck_resolution,
    proto_cloud,
    scan_line,
)
from eta_forge import finite_eta
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
    evaluations, escalations = [], []
    raw_evaluate, raw_extended = finite_eta._evaluate, finite_eta._ExtPowers

    def counting_evaluate(*args):
        evaluations.append(args)
        return raw_evaluate(*args)

    def counting_extended(*args):
        escalations.append(args)
        return raw_extended(*args)

    monkeypatch.setattr(finite_eta, "_evaluate", counting_evaluate)
    monkeypatch.setattr(finite_eta, "_ExtPowers", counting_extended)
    spec = FiniteEtaSpec(Family.HASSE, 20)
    records = scan_line(ScanConfig(spec, 0.5, 40.0, 100.0, default_step(spec)), CTX)
    assert records
    assert len(evaluations) > 600
    assert len(escalations) <= 0.1 * len(evaluations)


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
