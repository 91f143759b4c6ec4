"""The benchmark's tracer binds to waring by module attribute names; a rename
or deletion in src/ must fail here, not only under `perfbench/run.py --trace 1`."""

import importlib.util
from pathlib import Path

import waring
# layers() reads these as attributes of the package, which does not import them
import waring.acceptance  # noqa: F401
import waring.cli_reports  # noqa: F401

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_resolves():
    for name, module, attr, _ in load_tracing().layers(waring):
        assert callable(getattr(module, attr, None)), (name, module, attr)


def test_tracer_records_and_restores():
    # the counters read attributes of arguments and results (MomentSpec.target,
    # ArcMomentResult.n_intervals, RepFunction.table, ...): each must run here
    tracing = load_tracing()
    originals = [(m, a, getattr(m, a)) for _, m, a, _ in tracing.layers(waring)]
    ea = waring.expsum_arcs
    spec = ea.FullInterval(P=3, k=2)
    tracer = tracing.Tracer()
    tracer.install(waring)
    try:
        waring.bound_engine.delta_iterate(5, 20)
        waring.differences.psi(3, [1], [2])
        waring.differences.f_i_sum(0.25, 2, 3, [2], [(2, 3)], 3)
        ea.exact_moment(ea.abs_power(spec, 4))
        ea.arc_moment(ea.abs_power(spec, 4, "major"), ea.ArcDissection.make(3, 2),
                      samples_per_arc=16)
        waring.aux_count.rep_function([[1, 2], [1, 2]], 2)
        ea.eval_at(spec, 0.25)
    finally:
        tracer.uninstall()
    _, counts = tracer.take()
    for name in ("bound_engine.delta_iterate", "differences.psi",
                 "differences.f_i_sum", "phases.unit_sum",
                 "expsum_arcs.exact_moment", "expsum_arcs.arc_moment",
                 "aux_count.rep_function", "expsum_arcs.eval_at"):
        assert counts[name + ".calls"] >= 1, name
    for key in ("bound_engine.delta_iterate.steps",
                "expsum_arcs.exact_moment.grid_points",
                "expsum_arcs.arc_moment.samples",
                "aux_count.rep_function.distinct_sums",
                "expsum_arcs.eval_at.terms"):
        assert counts[key] > 0, key
    for module, attr, fn in originals:
        assert getattr(module, attr) is fn, (module, attr)
