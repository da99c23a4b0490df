"""One set of ids: the configuration table's lists and the simulator's arrays.

The table keeps its configurations, move slots and successor slots in int
lists; TraceEngine copies what its numpy walk gathers from them a batch at
a time.  After an estimate, every engine array must agree with the lists
at every id, and every successor the walk reached must be the one a plain
ConfigTable, read as build_pomdp reads it, gives for the same
(configuration, edge, outcome).
"""

import contextlib
import io

import pytest

from beliefprog import (BeliefProgError, ConfigTable, estimate, make_world,
                        parse_model, parse_trace_formula, reps_from_init)
from beliefprog.cli import main
from beliefprog.kb import initial_kb, real_bat
from beliefprog.pomdp import BROKE, UNREACHED
from beliefprog.simulate import (ERROR, STOP, UNFILLED, UNMADE, TraceEngine,
                                 cut_offs)
from conftest import COFFEE, ROOT, random_model_text
from test_kb import broken_model_text
from test_simulator import SIM_CHOICE, SIM_COFFEE

DEEP = ROOT / "perfbench" / "models" / "coffee_deep.bp"
CHOICE = ROOT / "perfbench" / "models" / "coffee_choice.bp"


def id_counts(table):
    """(configurations, filled, move slots, moves made, successor slots,
    successors reached, support) of a table."""
    return (len(table.nodes), sum(e is not None for e in table.enabled),
            len(table.real_rows), sum(r is not None for r in table.real_rows),
            len(table.succs), sum(s != UNREACHED for s in table.succs),
            table.support)


@pytest.mark.parametrize("argv, counts", [
    (SIM_CHOICE, (2486, 1794, 5376, 3097, 5591, 3883, 18561)),
    (SIM_COFFEE, (69, 62, 62, 62, 110, 110, 171)),
], ids=["sim-choice", "sim-coffee"])
def test_seed_zero_id_counts_are_pinned(monkeypatch, argv, counts):
    # the benchmark's simulate workloads at seed 0; fill, move and
    # successor are each called once per id they make or reach
    engines, calls = [], {"fill": 0, "move": 0, "successor": 0}
    init = TraceEngine.__init__

    def recording_init(self, *args):
        init(self, *args)
        engines.append(self)
    monkeypatch.setattr(TraceEngine, "__init__", recording_init)
    for name in calls:
        method = getattr(ConfigTable, name)

        def counted(self, *args, _method=method, _name=name):
            calls[_name] += 1
            return _method(self, *args)
        monkeypatch.setattr(ConfigTable, name, counted)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    (engine,) = engines
    assert id_counts(engine) == counts
    assert (calls["fill"], calls["move"], calls["successor"]) == \
        (counts[1], counts[3], counts[5])


def check_raised(engine, code, step, i):
    """code is that of a step error the engine keeps, and the table's step
    at id i raises that error again."""
    assert ERROR - len(engine.errors) < code <= ERROR
    with pytest.raises(BeliefProgError) as info:
        step(i)
    assert (type(info.value), str(info.value)) == engine.errors[ERROR - code]


def check_ids(engine):
    """Each engine array against the table's lists, at every id; an id
    whose step raised holds its error's code."""
    configs, slots, succs = (len(engine.nodes), len(engine.real_rows),
                             len(engine.succs))
    assert len(engine.enabled) == len(engine.first_moves) == configs
    assert len(engine.slot_config) == len(engine.first_succs) == slots
    assert len(engine.succ_slot) == succs
    assert (engine.choices[configs:] == UNFILLED).all()
    assert (engine.row[slots:] == UNMADE).all()
    assert (engine.succ[succs:] == UNREACHED).all()
    owners = []
    for c, fill in enumerate(engine.enabled):
        if fill is None:
            if engine.choices[c] != UNFILLED:
                check_raised(engine, engine.choices[c], engine.fill, c)
            continue
        live, is_final, is_failing = fill
        assert engine.choices[c] == len(live) + is_final
        assert is_failing == (not live and not is_final)
        assert engine.first_move[c] == engine.first_moves[c]
        owners += [(engine.first_moves[c] + i, c)
                   for i in range(len(live) + is_final)]
    # each filled configuration's move slots, and no other slot
    assert sorted(owners) == list(enumerate(engine.slot_config))
    rows = 0
    for m, row in enumerate(engine.real_rows):
        c = engine.slot_config[m]
        stop = m - engine.first_moves[c] == len(engine.enabled[c][0])
        if row is None:
            if not stop and engine.row[m] != UNMADE:
                check_raised(engine, engine.row[m], engine.move, m)
            else:
                assert engine.row[m] == (STOP if stop else UNMADE)
            continue
        assert not stop
        assert engine.row[m] == row.cuts
        cuts = cut_offs([p for _t, p in row.outcomes]).tolist()
        assert engine.cut_rows[row.cuts].tolist() == \
            cuts + [0] * (engine.cut_rows.shape[1] - len(cuts))
        first = engine.first_succs[m]
        assert engine.first_succ[m] == first
        assert engine.succ_slot[first:first + len(row.outcomes)] == \
            [m] * len(row.outcomes)
        rows += len(row.outcomes)
    assert rows == succs
    for s, succ in enumerate(engine.succs):
        if succ == UNREACHED and engine.succ[s] != UNREACHED:
            check_raised(engine, engine.succ[s], engine.successor, s)
        else:
            assert engine.succ[s] == succ


def check_successors(engine, model):
    """Every reached successor against a plain table of the model, filled,
    moved and stepped as build_pomdp does."""
    plain = ConfigTable(engine.graph, real_bat(model), initial_kb(model))
    reached = 0
    for s, succ in enumerate(engine.succs):
        if succ == UNREACHED:
            continue
        m = engine.succ_slot[s]
        c = engine.slot_config[m]
        pc = plain.entry(engine.nodes[c], engine.kbs[c], engine.worlds[c])
        if plain.enabled[pc] is None:
            plain.fill(pc)
        assert plain.enabled[pc] == engine.enabled[c]
        pm = plain.first_moves[pc] + m - engine.first_moves[c]
        row = plain.real_rows[pm] or plain.move(pm)
        assert row.outcomes == engine.real_rows[m].outcomes
        ps = plain.first_succs[pm] + s - engine.first_succs[m]
        got = plain.succs[ps]
        if got == UNREACHED:
            got = plain.successor(ps)
        if succ == BROKE:
            assert got == BROKE
        else:
            assert got == plain.entry(engine.nodes[succ], engine.kbs[succ],
                                      engine.worlds[succ])
        reached += 1
    return reached


def strategies(model, psi, world0, seed, trials, horizon):
    """Uniform-random, first-enabled and a policy map, each estimated on
    its own engine; a run that raises leaves its engine as it stands.  The
    map picks, at each observation the uniform-random run filled, its
    middle live edge, or the stop."""
    engines = []
    for policy in ("uniform-random", "first-enabled", None):
        if policy is None:
            first = engines[0]
            policy = {}
            for c, fill in enumerate(first.enabled):
                if fill is not None:
                    live = fill[0]
                    policy.setdefault(first.kbs[c].render(),
                                      live[len(live) // 2].label if live
                                      else "eps")
        engine = TraceEngine(model)
        try:
            estimate(model, psi, world0, policy, trials, seed, horizon, engine)
        except BeliefProgError:
            pass
        engines.append(engine)
    return engines


@pytest.mark.parametrize("path, psi", [
    (COFFEE, "F<=2 B(h = 2) = 1"), (DEEP, "F<=5 B(h = 2) = 1"),
    (CHOICE, "F<=3 B(h = 2) = 1")], ids=["coffee", "coffee-deep", "choice"])
def test_engine_arrays_are_the_tables_ids_on_bundled_models(path, psi):
    model = parse_model(path.read_text())
    engines = strategies(model, parse_trace_formula(psi, model),
                         make_world(model, [0]), 5, 400, 10)
    reached = []
    for engine in engines:
        check_ids(engine)
        reached.append(check_successors(engine, model))
    assert min(reached) > 0 and sum(reached) > 190


@pytest.mark.parametrize("seed", range(60))
def test_engine_arrays_are_the_tables_ids_on_random_models(seed):
    model = parse_model(random_model_text(seed))
    fluent = model.fluents[0].name
    psi = parse_trace_formula(f"F<=2 B({fluent} = 0) = 1", model)
    for engine in strategies(model, psi, reps_from_init(model)[0], seed, 60,
                             5):
        check_ids(engine)
        check_successors(engine, model)


@pytest.mark.parametrize("seed", range(20))
def test_engine_arrays_are_the_tables_ids_after_a_step_error(seed):
    # a likelihood table broken so that a move raises; the move's slot
    # stays unmade in the table and holds the error's code in the engine,
    # and the ids made before it still agree
    _kind, text = broken_model_text(seed)
    model = parse_model(text)
    fluent = model.fluents[0].name
    psi = parse_trace_formula(f"F<=2 B({fluent} = 0) = 1", model)
    for engine in strategies(model, psi, reps_from_init(model)[0], seed, 60,
                             5):
        check_ids(engine)
        check_successors(engine, model)
