"""Agent-side solver: almost-sure task completion in the perceived game.

Because the perceived game treats jamming as a memoryless fault, the
question "can the agent be sure to finish?" becomes almost-sure
reachability of the absorbing `FINAL` node, under one extra constraint:
the agent only sees beliefs, so whatever moves she keeps available must
be identical across every node of a belief's equivalence class.

The solver starts from the *losing core*: nodes from which `FINAL` is
not even graph-reachable can never complete, whatever the strategy.
Then one loop runs rounds, and a round dooms nodes in one of two ways.
After a round that doomed nodes, it is an elimination sweep: any move
that can land in one of them is unsafe and is withdrawn from the whole
equivalence class of its source; a class whose move set empties out
is doomed.  After a round that doomed none, the sweep has stalled, and
the round is a stall check: every node whose surviving moves no longer
connect it to `FINAL` is stranded, since it can loop forever without
completing, so its entire class is doomed and the sweep resumes.  A
stall check that finds no stranded node ends the loop.  What survives
is the winning region together with the maximal permissive move sets,
and every run of the induced chain from a winning node completes with
probability one.

Each withdrawal is logged, so the result can be audited move by move.

The solver and the soundness audit run on the perceived game's one
numbering, the ints `BeliefMDP` stores.  Node i is ``mdp.nodes[i]``, whose
canonical order makes i the node's `node_key` rank, and `FINAL` is N.
Move k is the k-th (action, query) pair in ascending order, and a
node's move set is an int with bit k set for move k.  `solve_p1` builds
a single reverse adjacency once per solve, and it serves the losing core, the
elimination sweep and the stall check (`reaching_final`, nested in the
solver).  It is filled by scanning nodes in rank order and each node's
moves in sorted order, so every predecessor list is already in
(node_key, move) order and needs no sort.  The moves are kept per
class: each class holds one move mask and the list of its live members,
those that reach `FINAL` at the start, so a withdrawal tests one bit
once and logs one removal per live member.  Per-node masks are built
only for each stall's `reaching_final` and for the report.  The doomed
set is a flag list; ints become `BeliefNode` and move pairs again only
in the report, and the trace's `Removal`s only when it is read.  The
reverse adjacency is dropped once the loop ends, before the report is
built, so the two are never held at once.

The report's `MultiStrategy` maps each node of the winning region, Win1,
in canonical order, to its nonempty move set; a node it does not list
keeps no move.  So Win1 is stated once, as the mapping's domain, and
`SolveReport.win` is a view of it, built on first read.  The strategy
has one accessor: `for_belief`, the moves an observation-driven player
has at a belief, in ascending order.  It keeps no cache: the simulator
reads it once per step record it builds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Mapping

from .belief import ActionPair, BeliefMDP, BeliefNode
from .game import states_of


@dataclass(frozen=True)
class MultiStrategy:
    """The moves the agent keeps available, per node of her winning region.

    The solver's map lists exactly the winning nodes, in canonical order,
    each with a nonempty set; a node it does not list keeps no move.
    Sets agree across each equivalence class, so `for_belief` is well
    defined and is what an observation-driven player actually uses.
    """

    allowed: Mapping[BeliefNode, frozenset[ActionPair]]

    def for_belief(self, belief: frozenset[int]) -> tuple[ActionPair, ...]:
        """The moves kept at ``belief``, ascending, or ``()`` where there
        are none.  Every (s, B) with s in B is a node and class-mates
        keep one set, so the least member's set is the class's; no node
        has state -1, so an empty belief finds none."""
        return tuple(sorted(self.allowed.get(BeliefNode(min(belief, default=-1), belief), ())))


@dataclass(frozen=True, slots=True)
class Removal:
    """One elimination event in round ``iteration``: ``move`` withdrawn
    at ``node`` on account of ``cause`` -- either a doomed node the move
    could land in, or a stranded class member whose doom took the whole
    class (and its remaining moves) down with it."""

    iteration: int
    node: BeliefNode
    move: ActionPair
    cause: BeliefNode


@dataclass(frozen=True)
class SolveReport:
    """The agent's result: her strategy, whose domain is her winning
    region, Win1, and how the other nodes were doomed."""

    mdp: BeliefMDP
    strategy: MultiStrategy  # its domain is Win1
    levels: tuple[tuple[BeliefNode, ...], ...]  # doomed nodes, by round found
    # (round, node, move, cause) of each withdrawal in order, on the
    # perceived game's ids, run together into one flat tuple of ints.
    _removals: tuple[int, ...]

    @property
    def trace(self) -> tuple[Removal, ...]:
        """Every withdrawal, in order, built from the ints on each read."""
        nodes, moves = self.mdp.nodes, self.mdp.moves
        ints = iter(self._removals)
        return tuple(Removal(r, nodes[i], moves[k], nodes[c])
                     for r, i, k, c in zip(ints, ints, ints, ints))

    @cached_property
    def win(self) -> frozenset[BeliefNode]:
        """Win1, the strategy's domain, as a set, built on first read."""
        return frozenset(self.strategy.allowed)

    @property
    def initial_winning(self) -> bool:
        """The headline verdict: can the agent, from the start, be sure
        (in her own model) of completing the task?"""
        return self.mdp.initial in self.strategy.allowed


def solve_p1(mdp: BeliefMDP) -> SolveReport:
    """Maximal belief-uniform multi-strategy for almost-sure completion.

    The moves are kept per class, not per node.  This relies on every
    class's members holding one ``node_moves`` tuple, which
    `build_belief_mdp` guarantees and a sub-MDP must keep: every
    withdrawal and every doom then applies to a whole class, so each
    member not doomed in round 0 always holds its class's moves.

    Every round, sweep or stall check, runs in one loop body that
    branches only on how the round dooms nodes, and shares one tail: the
    round counter steps, and the nodes the round doomed, if any, are
    the next level.  A stall check that does not end the loop always
    dooms a node: a stranded node is not doomed, so its class still
    holds moves.
    """
    n = len(mdp.succs)
    # back[j]: the (predecessor, move) pairs of node j in canonical
    # order, each stored as the int ``i << shift | k``, which ``low``
    # masks back to k.  Ints, unlike tuples, are not tracked by the
    # cyclic garbage collector, and each pair is one int shared by the
    # lists of all its successors.
    shift = len(mdp.moves).bit_length()
    low = (1 << shift) - 1
    back: list[list[int]] = [[] for _ in range(n + 1)]
    for i, (ks, succs) in enumerate(zip(mdp.node_moves, mdp.succs)):
        for k, targets in zip(ks, succs):
            entry = i << shift | k
            for j in targets:
                back[j].append(entry)

    def reaching_final(moves: list[int]) -> bytearray:
        """Flags of the nodes that reach FINAL through moves whose bit is
        set in ``moves[pred]``."""
        reached = bytearray(n)
        queue = [n]
        for node in queue:
            for entry in back[node]:
                pred = entry >> shift
                if not reached[pred] and moves[pred] >> (entry & low) & 1:
                    reached[pred] = 1
                    queue.append(pred)
        return reached

    # cls[i]: node i's class.  offered[c]: class c's move set.  live[c]:
    # its members that reach FINAL at the start, in ``members`` order.
    # allowed[c]: the one move set those members hold, 0 once they are
    # doomed.
    cls = [0] * n
    offered: list[int] = []
    for c, ids in enumerate(mdp.members):
        for i in ids:
            cls[i] = c
        offered.append(sum(1 << k for k in mdp.node_moves[ids[0]]))
    alive = reaching_final([offered[c] for c in cls])
    doomed = bytearray(1 - flag for flag in alive)
    live = [[i for i in ids if alive[i]] for ids in mdp.members]
    allowed = [mask if ids else 0 for mask, ids in zip(offered, live)]

    def per_node() -> list[int]:
        """Each node's move set: its class's, or 0 where it is doomed."""
        return [0 if doomed[i] else allowed[cls[i]] for i in range(n)]

    current = [i for i in range(n) if doomed[i]]
    levels: list[list[int]] = [current]
    trace: list[int] = []  # flat, as in `SolveReport._removals`
    iteration = 0

    while True:
        fresh: list[int] = []
        if current:
            # Sweep: withdraw every move that can land in a node doomed
            # last round; a class left without moves is doomed whole.
            for cause in current:
                for entry in back[cause]:
                    c = cls[entry >> shift]
                    k = entry & low
                    if allowed[c] >> k & 1:
                        allowed[c] ^= 1 << k
                        for peer in live[c]:
                            trace += (iteration, peer, k, cause)
                        if not allowed[c]:
                            for peer in live[c]:
                                doomed[peer] = 1
                            fresh += live[c]
        else:
            # The sweep stalled.  A node may keep moves yet have lost every
            # route to FINAL (only loops remain); playing there never
            # completes, so the node -- and, since the agent cannot tell the
            # members apart, its whole class -- is doomed as well.
            alive = reaching_final(per_node())
            stranded = [i for i in range(n) if not doomed[i] and not alive[i]]
            if not stranded:
                break
            for node in stranded:
                c = cls[node]
                kept = states_of(allowed[c])
                if not kept:  # a class-mate stranded earlier this round
                    continue
                for member in live[c]:
                    for k in kept:
                        trace += (iteration, member, k, node)
                    doomed[member] = 1
                allowed[c] = 0
                fresh += live[c]
        iteration += 1
        current = sorted(fresh)
        if current:
            levels.append(current)

    del back  # its last reader is done; the report is built without it
    nodes, moves = mdp.nodes, mdp.moves
    held = per_node()  # 0 exactly at the doomed nodes
    move_sets = {mask: frozenset(moves[k] for k in states_of(mask)) for mask in set(held)}
    return SolveReport(
        mdp=mdp,
        strategy=MultiStrategy({q: move_sets[mask] for q, mask in zip(nodes, held) if mask}),
        levels=tuple(tuple(nodes[i] for i in level) for level in levels),
        _removals=tuple(trace))


@dataclass(frozen=True)
class SoundnessVerdict:
    ok: bool
    reason: str
    # offending (node, move, successor), stuck (node,), or (class-mate, class-mate)
    witness: tuple | None = None

    def __bool__(self) -> bool:
        return self.ok


def certify_almost_sure_reach(
    start: int, successors: Callable[[int], Iterable[int]], target: int,
) -> tuple[bool, int | None]:
    """Certificate that a finite chain from ``start`` reaches ``target``
    with probability one: the target must stay graph-reachable from
    every node the chain can visit.  The nodes are the ids 0 to
    ``target``, as `check_soundness` numbers them, with `FINAL` the
    target; the plain brute force in the tests is the one other caller.
    Returns (ok, offending node), the offending node being the least
    stuck id.

    The forward walk calls ``successors`` once per reached non-target
    node and files each edge under its successor, in a list indexed by
    id that holds None for each id not reached; the backward sweep from
    the target then runs on those lists alone, flagging in a bytearray
    the ids that can finish.
    """
    preds: list[list[int] | None] = [None] * (target + 1)
    preds[start] = []
    queue = [start]
    for node in queue:
        if node == target:
            continue
        for succ in successors(node):
            if preds[succ] is None:
                preds[succ] = [node]
                queue.append(succ)
            else:
                preds[succ].append(node)

    can_finish = bytearray(target + 1)
    can_finish[target] = 1
    back = [] if preds[target] is None else [target]
    for node in back:
        for pred in preds[node]:
            if not can_finish[pred]:
                can_finish[pred] = 1
                back.append(pred)
    stuck = [node for node in queue if not can_finish[node]]
    return (False, min(stuck)) if stuck else (True, None)


def check_soundness(mdp: BeliefMDP, strategy: MultiStrategy) -> SoundnessVerdict:
    """Independent audit of a claimed winning multi-strategy.

    Three checks, in this order.  Closure: from any node with moves
    left, every successor of every kept move either has moves left too
    or is the absorbing node.  Completion: from the start node (when it
    has moves), the absorbing node stays reachable everywhere the
    induced chain can go.  Uniformity: the agent sees only beliefs, so
    every member of a class keeps the same moves (a node the strategy
    does not list keeps none).  A failed verdict carries a concrete
    witness; for uniformity it is the first pair of class-mates, classes
    and members in canonical order, whose moves differ.

    All three run on the ints `BeliefMDP` stores, nodes in `node_key`
    order and each node's kept moves in sorted order; only a witness is
    turned back into nodes.
    """
    nodes = mdp.nodes
    final = len(nodes)
    kept = [strategy.allowed.get(q, frozenset()) for q in nodes]
    win = bytearray(bool(moves) for moves in kept) + b"\x01"  # FINAL is fine
    chain: list = [()] * final  # successor ids under the kept moves
    for i, q in enumerate(nodes):
        if not win[i]:
            continue
        offered = {mdp.moves[k]: succs
                   for k, succs in zip(mdp.node_moves[i], mdp.succs[i])}
        chain[i] = []
        for move in sorted(kept[i]):
            if move not in offered:
                return SoundnessVerdict(
                    False, f"move {move} kept at {q} but never offered there",
                    witness=(q, move, None))
            for j in offered[move]:
                if not win[j]:
                    return SoundnessVerdict(
                        False,
                        f"kept move {move} at {q} can land outside the "
                        f"winning region, at {nodes[j]}",
                        witness=(q, move, nodes[j]))
            chain[i] += offered[move]

    start = mdp.start
    if start is not None and win[start]:
        ok, stuck = certify_almost_sure_reach(start, chain.__getitem__, final)
        if not ok:
            return SoundnessVerdict(
                False,
                f"induced chain can reach {nodes[stuck]}, from which completion "
                f"is impossible",
                witness=(nodes[stuck],))

    for members in mdp.members:
        for i in members[1:]:
            if kept[i] != kept[members[0]]:
                pair = (nodes[members[0]], nodes[i])
                return SoundnessVerdict(
                    False, "class-mates %s and %s keep different moves" % pair, witness=pair)
    return SoundnessVerdict(True, "closure and completion certificates hold")
