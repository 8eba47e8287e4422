"""The encodings the solves hand to the engine: the warm start's translation
sets exactly each encoding's own variables, and compiling, solving and
resuming leave a model as it was built (its records are not frozen, and the
compile shares work by the identity of member tuples and delta tables)."""

import copy

import pytest

from hffs.bounds import best_lb
from hffs.engine import check_assignment, resume, solve
from hffs.full_model import build_full, schedule_to_assignment
from hffs.instance_gen import GenSpec, generate
from hffs.lbbd import BendersCut
from hffs.master import build_master, solve_master
from hffs.model import serial_schedule

SPECS = {
    "group1": GenSpec(group=1, jobs=20, seed=0),
    "group2": GenSpec(group=2, jobs=20, stages=3, variant=2, seed=0),
}


def full(inst):
    base = serial_schedule(inst)
    return build_full(inst, horizon=base.makespan, lb_floor=best_lb(inst).best), base


def pinned_sub(inst):
    """The full model pinned to a short master search's machines, as the
    decomposition's subproblem is."""
    floor = best_lb(inst).best
    machine_of = solve_master(
        inst, [], floor, start=serial_schedule(inst), node_budget=25).machine_of
    base = serial_schedule(inst, machine_of)
    return build_full(inst, horizon=base.makespan, lb_floor=floor, machine_of=machine_of), base


def master_with_a_cut(inst):
    """The master with one cut on the serial schedule's machines, which the
    warm start therefore hits."""
    base = serial_schedule(inst)
    cut = BendersCut(tuple(base.machine_of.items()), base.makespan + 1)
    return build_master(inst, [cut], best_lb(inst).best, horizon=base.makespan + 1), base


BUILDERS = {"full": full, "pinned-sub": pinned_sub, "master-cut": master_with_a_cut}


@pytest.mark.parametrize("group", SPECS)
@pytest.mark.parametrize("build", BUILDERS)
def test_warm_start_sets_exactly_the_encodings_variables(build, group):
    enc, base = BUILDERS[build](generate(SPECS[group]))
    hint = schedule_to_assignment(enc, base)
    assert hint.choices.keys() == enc.model.choices.keys()
    assert hint.starts.keys() == hint.ends.keys() == enc.model.tasks.keys()
    assert check_assignment(enc.model, hint) == []


def records(model):
    """Every record of a model, in a fixed order."""
    cons = model.constraints
    groups = cons.disjunctives + cons.cumulatives
    return [
        *model.tasks.values(), *model.choices.values(), *cons.offsets,
        *cons.precedences, *groups, *(m for g in groups for m in g.members),
        *cons.conditional_bounds,
    ]


def shared(model):
    """The objects the compile shares work by: member tuples and delta tables."""
    cons = model.constraints
    links = cons.offsets + cons.precedences
    return ([id(g.members) for g in cons.disjunctives + cons.cumulatives]
            + [id(link.table[2]) for link in links if link.table is not None])


@pytest.mark.parametrize("build", BUILDERS)
def test_a_paused_and_resumed_search_leaves_its_model_unchanged(build):
    enc, base = BUILDERS[build](generate(SPECS["group2"]))
    model = enc.model
    before, ids, shares = copy.deepcopy(model), list(map(id, records(model))), shared(model)
    result = solve(model, node_budget=20, hint=schedule_to_assignment(enc, base))
    assert result.paused is not None  # stopped at its budget, not finished
    assert resume(result, node_budget=60).nodes > 20
    assert model == before
    assert list(map(id, records(model))) == ids
    assert shared(model) == shares
