"""Batched VC-allocation and switch-allocation kernels.

Each function replays, with array ops across every router at once, the
exact decision sequence of the object engine's per-router loops.  The core
primitive is the batched round-robin grant over *sorted rolled offsets*:
the winner of a round-robin arbiter minimizes ``(slot - pointer) mod n``
(exactly :func:`repro.core.arbiter.rr_winner`; a drift-guard test pins the
two together), and because the pointer advances one past each winner, the
winners of successive rounds are simply the requesters in ascending offset
order.  Sorting requesters by ``(arbiter id, offset)`` therefore yields
every arbiter's full grant sequence in one argsort — group heads are the
round-1 winners, ranks within a group are round numbers.

Everything is addressed through the flat views and precomputed index/roll
tables of :class:`~repro.sim.vec.state.SoAState`: at these array sizes (a
few thousand elements) numpy per-op dispatch dominates, and single-array
flat indexing is several times cheaper than multi-axis fancy indexing or
axis reductions over request cubes.

Order independence, which is what makes batching legal:

* every VA requester targets exactly one output, so a VA round grants at
  most one winner per (router, output) and winners never collide;
* SA phase 1 winners are per crossbar input, phase 2 winners per output —
  a granted (input VC, output) pair is unique both ways;
* per-router allocator state (pointers, credits) is only read and written
  by that router's own arbitration, so routers are independent within a
  cycle (the object engine's sorted-rid loop has no cross-router effect).

Only the VA VC *choice* stays sequential (the policy consumes one free
output VC per round), replayed round by round over arrays that shrink to
the few outputs with multiple same-cycle heads.
"""

from __future__ import annotations

import numpy as np

from repro.core.matching import maximum_matching_size

from .state import ACTIVE, VA_WAIT, SoAState


def rr_pick(mask: np.ndarray, ptr: np.ndarray, n: int) -> np.ndarray:
    """Batched round-robin winner over the trailing axis.

    ``mask[..., n]`` holds the request lines, ``ptr[...]`` the pointers.
    The winner minimizes ``(slot - ptr) mod n`` among requesters — exactly
    :func:`repro.core.arbiter.rr_winner`.  Rows with no requester return 0;
    callers mask those out with ``mask.any(-1)``.  (Reference formulation;
    the production kernels use the sorted-offset form of the same rule.)
    """
    offsets = (np.arange(n) - ptr[..., None]) % n
    return np.where(mask, offsets, n).argmin(-1)


def select_max_credit(cand: np.ndarray, creds: np.ndarray) -> np.ndarray:
    """Vector :class:`~repro.core.vc_policy.MaxCreditPolicy`.

    ``cand[W, V]`` marks free VCs, ``creds[W, V]`` their credit counts.
    Most credits wins, ties to the lowest VC id (argmax takes the first
    maximum) — the object policy's strict-``>`` scan in VC order.
    """
    return np.where(cand, creds, -1).argmax(-1)


def select_vix_dimension(
    s: SoAState,
    cand: np.ndarray,
    creds: np.ndarray,
    direction: np.ndarray,
) -> np.ndarray:
    """Vector :class:`~repro.core.vc_policy.VixDimensionPolicy`.

    Groups the ``V = k * gs`` VCs into ``k`` sub-groups, prefers the group
    matching the downstream direction class (``direction``, -1 for "ejects
    downstream"), otherwise the group maximizing (candidate count, summed
    credits, lowest group id); within the group, most credits wins with
    ties to the lowest VC.

    The whole decision collapses to one argmax over a fused per-VC int64
    key: lexicographic (forced-group bonus, group score, -group id, local
    value) with the state's precomputed strides (``sumcap`` > any credit
    sum ranks candidate count above summed credits inside the group score;
    ``vix_bonus`` only lifts a direction's preferred group, so a forced
    group with no candidate — all its keys masked to -1 — falls back to
    the score ordering, exactly the object policy's ``score > 0`` test).
    Ties resolve to the first maximum = lowest VC of the lowest group.
    """
    val = np.where(cand, creds + s.sumcap, 0)
    score = val @ s.grp_mat
    key = score[:, s.gof] * s._m2 + (s.gtb + val) + s.vix_bonus[direction + 1]
    return np.where(cand, key, -1).argmax(-1)


def _group_heads(key_sorted: np.ndarray) -> np.ndarray:
    """Boolean mask of the first element of each run in a sorted key array."""
    head = np.empty(key_sorted.size, dtype=bool)
    head[0] = True
    np.not_equal(key_sorted[1:], key_sorted[:-1], out=head[1:])
    return head


def va_kernel(s: SoAState) -> int:
    """One cycle of VC allocation across every router; returns #granted.

    Replays ``Router.vc_allocate``: per (router, output) the round-robin
    arbiter picks one VA_WAIT head per round (pointer rotating past every
    winner), the VC policy assigns a free output VC, and rounds repeat
    while the output still has both a requester and a free VC.  Requesters
    left over when an output's VCs run out stay VA_WAIT for next cycle.

    The winners of all rounds and the final pointers come from one sort by
    rolled offset (see module docstring); only the per-round VC choice
    iterates, over the pairs still granting in that round.
    """
    PV, P, V, T = s.PV, s.P, s.V, s.T
    fi = np.flatnonzero(s.st1 == VA_WAIT)
    if fi.size == 0:
        return 0
    pair = (fi // PV) * P + s.outp1[fi]
    # Outputs with no free VC run no arbitration at all (no pointer
    # rotation, no grant) — drop their requesters up front.  At saturation
    # this is the overwhelming majority of the VA_WAIT set.
    ok = s.nfree[pair] > 0
    if not ok.all():
        fi = fi[ok]
        pair = pair[ok]
        if fi.size == 0:
            return 0
    slot = fi % PV
    off = s.roll_va1[s.va_ptr1[pair] * PV + slot]
    # Offsets are unique within a pair, so this key has no ties and the
    # sort groups requesters by pair in round (offset) order.
    order = np.argsort(pair * PV + off)
    fi = fi[order]
    pair = pair[order]
    slot = slot[order]
    # Rank within the pair group = the round this requester would win.
    idx = s._arN[: pair.size]
    rank = idx - np.maximum.accumulate(np.where(_group_heads(pair), idx, 0))
    # Rounds run while the output has requesters AND free VCs: this pair
    # grants min(#requesters, #free) rounds, in rank order.
    nwin = np.minimum(np.bincount(pair, minlength=s.RP), s.nfree)[pair]
    granted = rank < nwin
    ngrant = int(granted.sum())
    if ngrant == 0:
        return 0
    # The pointer ends one past the last winner (it rotated past each).
    last = granted & (rank == nwin - 1)
    s.va_ptr1[pair[last]] = s.inc_va[slot[last]]
    # Round-by-round VC choice: the policy consumes one free VC per grant,
    # so later rounds see the earlier choices.  Round 0 covers every
    # granting pair; later rounds only the (few) pairs with several
    # same-cycle heads for one output.
    gidx = np.flatnonzero(granted)
    r = 0
    while True:
        sel = gidx[rank[gidx] == r]
        if sel.size == 0:
            break
        gp = pair[sel]
        gfi = fi[sel]
        cols = (gp * V)[:, None] + s._arV
        cand = ~s.oalloc1[cols]
        if (s.nfree[gp] == 1).all():
            # Single free VC everywhere: the choice is forced, exactly as
            # the object router's lone-candidate shortcut (every policy
            # returns the only candidate).  The common case at saturation,
            # where grants chase individual credit releases.
            choice = cand.argmax(-1)
        elif s.policy_vix:
            direction = s.la1[gp * T + s.dst1[gfi]]
            choice = select_vix_dimension(s, cand, s.ocred1[cols], direction)
        else:
            choice = select_max_credit(cand, s.ocred1[cols])
        s.oalloc1[gp * V + choice] = True
        s.nfree[gp] -= 1
        s.st1[gfi] = ACTIVE
        s.outv1[gfi] = choice
        if sel.size == gidx.size:
            break
        r += 1
    return ngrant


def _sa_requests(s: SoAState):
    """Switch-allocation request lines: ACTIVE, buffered, and creditable.

    Returns flat VC index, assigned output port, and (router, output) pair
    id per request.  The credit test covers ejection too: local output
    ports never spend credits, so their count stays at ``buffer_depth``
    (>= 1) and the NI always sinks.
    """
    fi = np.flatnonzero((s.st1 == ACTIVE) & (s.occ1 > 0))
    if fi.size == 0:
        return None
    out = s.outp1[fi]
    po = (fi // s.PV) * s.P + out
    ok = s.ocred1[po * s.V + s.outv1[fi]] > 0
    if not ok.all():
        fi, out, po = fi[ok], out[ok], po[ok]
        if fi.size == 0:
            return None
    return fi, out, po


def max_matching_total(
    rid: np.ndarray,
    grp: np.ndarray,
    out: np.ndarray,
    ngroups: np.ndarray,
    ngrants: np.ndarray,
    num_outputs: int,
) -> int:
    """Summed per-router maximum matching of crossbar inputs to outputs.

    ``rid``/``grp``/``out`` describe one request each: its router, its
    crossbar input (an id unique across routers) and its output port.
    ``ngroups[r]`` counts router ``r``'s requesting crossbar inputs and
    ``ngrants[r]`` is the size of a matching it achieved on them.  No
    matching exceeds ``min(#inputs, #requested outputs)``, so where the
    grants reach that bound they *are* the maximum; only the remaining
    routers run :func:`~repro.core.matching.maximum_matching_size`, the
    object probes' reference.
    """
    R = ngrants.size
    requested = np.bincount(rid * num_outputs + out, minlength=R * num_outputs)
    nout = np.count_nonzero(requested.reshape(R, num_outputs), axis=1)
    short = ngrants == np.minimum(ngroups, nout)
    if short.all():
        return int(ngrants.sum())
    total = int(ngrants[short].sum())
    rest = ~short[rid]
    adj: dict[int, dict[int, set[int]]] = {}
    for r, g, o in zip(rid[rest].tolist(), grp[rest].tolist(), out[rest].tolist()):
        adj.setdefault(r, {}).setdefault(g, set()).add(o)
    for groups in adj.values():
        total += maximum_matching_size(groups.values(), num_outputs)
    return total


def _fold_sa_probe(s: SoAState, probe, fi, gg, out, wfi, gfi) -> None:
    """Fold one cycle's input-first allocation rounds into ``probe``.

    One round per router with a request, counted exactly as the object
    allocator records it: requests, phase-1 winners (one per requesting
    crossbar input ``gg``) and grants, plus the maximum matching over the
    same request set.
    """
    R, PV = s.R, s.PV
    rid = fi // PV
    ngroups = np.bincount(wfi // PV, minlength=R)
    ngrants = np.bincount(gfi // PV, minlength=R)
    probe.fold(
        int(np.count_nonzero(np.bincount(rid, minlength=R))),
        fi.size,
        wfi.size,
        gfi.size,
        max_matching_total(rid, gg, out, ngroups, ngrants, s.P),
    )


def sa_input_first(s: SoAState, probe=None):
    """Input-first / VIX switch allocation (``SeparableInputFirstAllocator``).

    Phase 1: each crossbar input (``P * k`` per router, ``gs`` VCs each)
    round-robins among its requesting VCs.  Phase 2: each output
    round-robins among the crossbar inputs whose phase-1 winner wants it.
    Both pointers rotate whenever the arbiter saw any requester, matching
    the plain-pointer object allocator on every path (fast, single-dirty,
    and general).  Returns ``(flat VC index, output port)`` per grant.

    An :class:`~repro.obs.probes.AllocatorProbe` ``probe``, when given,
    receives the cycle's rounds (see :func:`_fold_sa_probe`).
    """
    sel = _sa_requests(s)
    if sel is None:
        return None
    fi, out, po = sel
    k, gs, Pk, V, PV = s.k, s.gs, s.Pk, s.V, s.PV
    if gs == 1:
        # Ideal VIX: one VC per crossbar input (k == V, so the global
        # crossbar-input id collapses to the flat VC index) — every
        # requester wins its own phase-1 arbiter and the width-1 pointer
        # rotation (0 + 1) % 1 is a no-op.
        gg = fi
        wfi, wout, wpo, wg = fi, out, po, fi % PV
    else:
        vv = fi % V
        lv = vv % gs
        gg = (fi // V) * k + vv // gs  # global crossbar-input id
        off = s.roll_p1_1[s.in_ptr1[gg] * gs + lv]
        order = np.argsort(gg * gs + off)
        head = _group_heads(gg[order])
        win = order[head]
        # Every group present rotated its arbiter (one winner per group).
        s.in_ptr1[gg[win]] = s.inc_p1[lv[win]]
        wfi, wout, wpo = fi[win], out[win], po[win]
        wg = gg[win] % Pk
    # Phase 2: outputs arbitrate among their offering crossbar inputs.
    off2 = s.roll_p2_1[s.out_ptr1[wpo] * Pk + wg]
    order2 = np.argsort(wpo * Pk + off2)
    head2 = _group_heads(wpo[order2])
    win2 = order2[head2]
    s.out_ptr1[wpo[win2]] = s.inc_p2[wg[win2]]
    gfi = wfi[win2]
    if probe is not None:
        _fold_sa_probe(s, probe, fi, gg, out, wfi, gfi)
    return gfi, wout[win2]


def sa_output_first(s: SoAState, probe=None):
    """Output-first switch allocation (``SeparableOutputFirstAllocator``).

    Phase 1: each output round-robins among **all** requesting (port, vc)
    lines within the router.  Phase 2: each input port round-robins among
    the outputs that picked one of its VCs (OF always runs a conventional
    k=1 crossbar input per port).  Returns ``(flat VC index, output port)``.
    ``probe`` is accepted for a uniform kernel signature and ignored: the
    object output-first allocator records no probe rounds either.
    """
    sel = _sa_requests(s)
    if sel is None:
        return None
    fi, out, po = sel
    V, P, PV = s.V, s.P, s.PV
    slot = fi % PV
    off = s.roll_of1_1[s.of_out_ptr1[po] * PV + slot]
    order = np.argsort(po * PV + off)
    head = _group_heads(po[order])
    win = order[head]
    s.of_out_ptr1[po[win]] = s.inc_of1[slot[win]]
    # Phase 2: each input port arbitrates among the outputs offering to it
    # (the arbiter slot is the *output* id).
    wfi, wout = fi[win], out[win]
    ig = wfi // V  # flat (router, input port) id
    off2 = s.roll_of2_1[s.of_in_ptr1[ig] * P + wout]
    order2 = np.argsort(ig * P + off2)
    head2 = _group_heads(ig[order2])
    win2 = order2[head2]
    s.of_in_ptr1[ig[win2]] = s.inc_of2[wout[win2]]
    return wfi[win2], wout[win2]
