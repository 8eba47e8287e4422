"""Pinned propagation on the ten-machine family: task bounds at the root and
at the first 30 depth-first nodes of group 1 models.

Group 1 stages have up to ten machines, so these models exercise routing an
operation to one of many machine groups; the digests were recorded before
the per-machine guarded members became routed members and must not move
while the engine only gets faster.  The full-model digests were re-recorded
when the encoding dropped each job's first and last waits.  Each node is
searched under the serial hint's incumbent cap, as ``solve`` would search it.
"""

import hashlib

import pytest

from hffs.bounds import best_lb
from hffs.engine import _apply, _child_values, _pick_branch, evaluate_objective, root_state
from hffs.full_model import build_full, schedule_to_assignment
from hffs.instance_gen import GenSpec, generate
from hffs.master import build_master
from hffs.model import serial_schedule

GOLDEN = {
    ("full", 0): "8caa2a54846161a0",
    ("full", 1): "ee82a38f87c445f6",
    ("full", 2): "f5e57cd0aa0784ab",
    ("master", 0): "a38733c7a0e768d1",
}


def model_and_cap(kind, seed):
    inst = generate(GenSpec(group=1, jobs=20, seed=seed))
    base = serial_schedule(inst)
    floor = best_lb(inst).best
    if kind == "full":
        enc = build_full(inst, horizon=base.makespan, lb_floor=floor)
    else:
        enc = build_master(inst, [], floor, horizon=base.makespan)
    hint = schedule_to_assignment(enc, base)
    return enc.model, evaluate_objective(enc.model, hint) - 1


def search_digest(model, cap, nodes=31):
    """Hash of every task's bounds after each of the first ``nodes``
    depth-first propagations; a failed node contributes only its failure,
    since how far a failing fixpoint got depends on propagation order."""
    comp, root = root_state(model)
    stack = [(root, None)]
    h = hashlib.sha256()
    visited = 0
    while stack and visited < nodes:
        state, edit = stack.pop()
        visited += 1
        if comp.propagate(state, cap, edit) is not None:
            h.update(b"fail;")
            continue
        h.update(repr((state.s_lo, state.s_hi, state.e_lo, state.e_hi)).encode())
        branch = _pick_branch(comp, state)
        if branch is not None:
            for value in reversed(_child_values(comp, branch)):
                child = state.copy()
                _apply(child, branch, value)
                stack.append((child, branch))
    assert visited == nodes
    return h.hexdigest()[:16]


@pytest.mark.parametrize("key", sorted(GOLDEN), ids=str)
def test_group1_search_bounds_are_pinned(key):
    assert search_digest(*model_and_cap(*key)) == GOLDEN[key]
