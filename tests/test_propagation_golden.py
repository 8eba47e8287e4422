"""Pinned propagation fixpoints on pinned subproblems of group 2.

Each machine choice is pinned round-robin over its stage's machines, so the
machine groups hold many active members: 18-20 on the two-machine stages of
group2/50 (3 stages, variant 2) and 39 on its one-machine stage, and up to
326 on group2/400 (4 stages, variant 2).  A digest of every task's bounds
and every choice after propagation, and of whether it failed, is pinned
under the serial hint's incumbent cap at the first 31 depth-first nodes of
group2/50 (the root and 30 worker-choice edits), at its first 400 (then 284
start edits, 125 of which fail), and at the root of group2/400.  A change to
any propagator that moves one bound, or the fail/no-fail outcome of one
node, changes a digest; the name of a failing constraint is not part of it.
"""

import hashlib
from collections import Counter

import pytest

from hffs.bounds import best_lb
from hffs.engine import _apply, _child_values, _pick_branch, evaluate_objective, root_state
from hffs.full_model import build_full, schedule_to_assignment
from hffs.instance_gen import GenSpec, generate
from hffs.model import serial_schedule

# (jobs, stages, depth-first nodes) -> sha256 of the visited fixpoints
DIGESTS = {
    (50, 3, 31): "e8d51c8fd05d24aecdfb4cfbdcd4ac9a46072b9b5fc6cf606772766d9d156ce2",
    (50, 3, 400): "d7ab466430e5918e4aae0fb1eb37680f2b29806dec0fdd3a7c6d12d682347862",
    (400, 4, 1): "f9ed06a7a9053bc410fd81f3184fe7287c18ceaa4bad4f143b1c095d7d619e80",
}


def pinned_subproblem(jobs, stages):
    """The full model of group 2 (variant 2, seed 0) under a round-robin
    machine map, with the serial schedule of that map as its hint."""
    inst = generate(GenSpec(group=2, jobs=jobs, stages=stages, variant=2, seed=0))
    seen = Counter()
    machine_of = {}
    for job, stage in inst.ops():
        machines = inst.machines_of(stage)
        machine_of[job, stage] = machines[seen[stage] % len(machines)]
        seen[stage] += 1
    base = serial_schedule(inst, machine_of)
    enc = build_full(inst, horizon=base.makespan, lb_floor=best_lb(inst).best,
                     machine_of=machine_of)
    return enc.model, schedule_to_assignment(enc, base)


def fixpoint_digest(model, hint, nodes):
    """Digest of the first ``nodes`` depth-first fixpoints under the hint's cap."""
    cap = evaluate_objective(model, hint) - 1
    comp, root = root_state(model)
    digest = hashlib.sha256()
    stack = [(root, None)]
    visited = 0
    while stack and visited < nodes:
        state, edit = stack.pop()
        visited += 1
        failed = comp.propagate(state, cap, edit) is not None
        digest.update(repr((failed, state.s_lo, state.s_hi, state.e_lo, state.e_hi,
                            state.values)).encode())
        if failed:
            continue
        branch = _pick_branch(comp, state)
        if branch is not None:
            for value in reversed(_child_values(comp, branch)):
                child = state.copy()
                _apply(child, branch, value)
                stack.append((child, branch))
    assert visited == nodes
    return digest.hexdigest()


@pytest.mark.parametrize("key", sorted(DIGESTS), ids=str)
def test_pinned_subproblem_fixpoints_are_pinned(key):
    jobs, stages, nodes = key
    model, hint = pinned_subproblem(jobs, stages)
    assert fixpoint_digest(model, hint, nodes) == DIGESTS[key]
