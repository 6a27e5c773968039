"""The benchmark's traced run (perfbench/run.py) times each layer by
rebinding the names one module calls in another.  A call that bypasses
those names would silently drop out of the per-layer metrics, so these
tests pin them down.  A line scan's grid is the exception: it goes through
the line kernel (``finite_eta._line``), which the traced run does not
rebind, so the evaluate metrics count only the polish."""

import os
import sys
import types

from eta_forge import kernel_integrals, proto_zeros
from eta_forge.finite_eta import Family, FiniteEtaSpec
from eta_forge.proto_zeros import ScanConfig, default_step

RUN_PY = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "run.py")


def _load_run_module():
    # compiled from source, so nothing is written next to the file
    with open(RUN_PY, encoding="utf-8") as fh:
        source = fh.read()
    module = types.ModuleType("perfbench_run")
    module.__file__ = RUN_PY
    sys.modules[module.__name__] = module  # dataclasses look their module up
    try:
        exec(compile(source, RUN_PY, "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


def test_layer_bindings_name_live_callables():
    bindings = _load_run_module().layer_bindings()
    assert bindings
    for module, attr, _name, _info in bindings:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_cross_layer_calls_go_through_bound_names(monkeypatch):
    calls = {"evaluate": 0, "derivative": 0, "grid": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    raw_line = proto_zeros._line

    def line(coefs, sigma, ts, *args):
        calls["grid"] += len(ts)
        return raw_line(coefs, sigma, ts, *args)

    monkeypatch.setattr(proto_zeros, "_line", line)
    monkeypatch.setattr(proto_zeros, "evaluate", counting("evaluate", proto_zeros.evaluate))
    monkeypatch.setattr(kernel_integrals, "derivative",
                        counting("derivative", kernel_integrals.derivative))
    spec = FiniteEtaSpec(Family.HASSE, 3)
    cfg = ScanConfig(spec, 0.5, 1.0, 12.0, default_step(spec))
    records = proto_zeros.scan_line(cfg)
    grid = int((cfg.t_max - cfg.t_min) / cfg.step) + 1
    # s = 2 is a pole-free point of the HASSE n = 3 closed form, which takes eta' there
    kernel_integrals.rhs_closed_form(Family.HASSE, 3, 2.0)
    assert calls["grid"] >= grid  # every grid point reaches the line kernel
    assert records and calls["evaluate"] > 0  # the polish
    assert calls["derivative"] > 0
