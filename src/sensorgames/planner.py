"""Agent-side solver: almost-sure task completion in the perceived game.

Because the perceived game treats jamming as a memoryless fault, the
question "can the agent be sure to finish?" becomes almost-sure
reachability of the absorbing `FINAL` node, under one extra constraint:
the agent only sees beliefs, so whatever moves she keeps available must
be identical across every node of a belief's equivalence class.

The solver interleaves two phases until stable.  First the *losing
core*: nodes from which `FINAL` is not even graph-reachable can never
complete, whatever the strategy.  Then an elimination sweep: any move
that can land in an already-doomed node is unsafe and is withdrawn from
the whole equivalence class of its source; a node whose move set
empties out joins the doomed set.  Whenever the sweep stalls, every
node whose surviving moves no longer connect it to `FINAL` is stranded:
it can loop forever without completing, so its entire class is doomed
and the sweep resumes.  What survives is the winning region together
with the maximal permissive move sets, and every run of the induced
chain from a winning node completes with probability one.

Each withdrawal is logged, so the result can be audited move by move.

Both phases run on one dense index of the perceived game, built once per
solve (`_Graph`).  Node i is ``mdp.nodes[i]``, whose canonical order
makes i the node's `node_key` rank, and `FINAL` is N.  Move k is the
k-th distinct move in sorted order, and a node's move set is an int with
bit k set for move k.  A single reverse adjacency serves the losing
core, the elimination sweep and the stall check.  It is filled by
scanning nodes in rank order and each node's moves in sorted order, so
every predecessor list is already in (node_key, move) order and needs
no sort.  Class peers are int lists and the doomed set a flag list;
ints become `BeliefNode`, move pairs and `Removal` again only in the
report.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Mapping

from .belief import (
    FINAL,
    ActionPair,
    BeliefMDP,
    BeliefNode,
    _Final,
    node_key,
)


@dataclass(frozen=True)
class MultiStrategy:
    """Per-node sets of moves the agent keeps available.

    The map covers every node of the perceived game; the set is empty
    exactly at nodes outside the winning region.  Sets agree across each
    equivalence class, so `for_belief` is well defined and is what an
    observation-driven player actually uses.
    """

    allowed: Mapping[BeliefNode, frozenset[ActionPair]]

    def winning(self) -> frozenset[BeliefNode]:
        return frozenset(q for q, moves in self.allowed.items() if moves)

    def for_belief(self, belief: frozenset[int]) -> frozenset[ActionPair] | None:
        for node in sorted(belief):
            moves = self.allowed.get(BeliefNode(node, belief))
            if moves:
                return moves
        return None


@dataclass(frozen=True)
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
    mdp: BeliefMDP
    win: frozenset[BeliefNode]
    strategy: MultiStrategy
    levels: tuple[tuple[BeliefNode, ...], ...]  # doomed nodes, by round found
    trace: tuple[Removal, ...]

    @property
    def initial_winning(self) -> bool:
        """The headline verdict: can the agent, from the start, be sure
        (in her own model) of completing the task?"""
        return self.mdp.initial in self.win


class _Graph:
    """The perceived game on dense ints (see the module notes).

    ``offered[i]`` is node i's move set, ``back[j]`` the (predecessor,
    move) pairs of node j in canonical order, and ``peers[i]`` the
    members of node i's class in class order, one list per class.

    A pair (i, k) is stored as the int ``i << shift | k``, which ``low``
    masks back to k.  Ints, unlike tuples, are not tracked by the cyclic
    garbage collector, so the tens of thousands of edges of a large
    game add nothing to its passes.
    """

    def __init__(self, mdp: BeliefMDP):
        nodes = mdp.nodes
        self.n = n = len(nodes)
        index: dict = {q: i for i, q in enumerate(nodes)}
        index[FINAL] = n
        self.moves = sorted({pair for q in nodes for pair in mdp.trans[q]})
        move_id = {pair: k for k, pair in enumerate(self.moves)}
        self.offered = offered = [0] * n
        self.shift = shift = len(self.moves).bit_length()
        self.low = (1 << shift) - 1
        self.back: list[list[int]] = [[] for _ in range(n + 1)]
        for i, q in enumerate(nodes):
            moves = mdp.trans[q]
            for pair in sorted(moves):
                k = move_id[pair]
                offered[i] |= 1 << k
                entry = i << shift | k
                for succ in moves[pair]:
                    self.back[index[succ]].append(entry)
        self.peers: list[list[int]] = [[]] * n
        for members in mdp.classes.values():
            ranks = [index[q] for q in members]
            for i in ranks:
                self.peers[i] = ranks

    def reaching_final(self, live: list[int]) -> bytearray:
        """Flags of the nodes that reach FINAL through moves whose bit is
        set in ``live[pred]``."""
        reached = bytearray(self.n)
        queue = [self.n]
        shift, low = self.shift, self.low
        for node in queue:
            for entry in self.back[node]:
                pred = entry >> shift
                if not reached[pred] and live[pred] >> (entry & low) & 1:
                    reached[pred] = 1
                    queue.append(pred)
        return reached


def losing_core(mdp: BeliefMDP) -> frozenset[BeliefNode]:
    """Nodes from which the absorbing node is not graph-reachable."""
    graph = _Graph(mdp)
    alive = graph.reaching_final(graph.offered)
    return frozenset(q for i, q in enumerate(mdp.nodes) if not alive[i])


def pre_image(
    mdp: BeliefMDP, target: "BeliefNode | _Final"
) -> frozenset[tuple[BeliefNode, ActionPair]]:
    """All (node, move) pairs whose successor support contains ``target``."""
    return frozenset(mdp.predecessors()[target])


def solve_p1(mdp: BeliefMDP) -> SolveReport:
    """Maximal belief-uniform multi-strategy for almost-sure completion."""
    graph = _Graph(mdp)
    n, back, peers = graph.n, graph.back, graph.peers
    shift, low = graph.shift, graph.low
    alive = graph.reaching_final(graph.offered)
    allowed = [graph.offered[i] if alive[i] else 0 for i in range(n)]
    doomed = bytearray(1 - flag for flag in alive)
    current = [i for i in range(n) if doomed[i]]
    levels: list[list[int]] = [current]
    trace: list[tuple[int, int, int, int]] = []  # (round, node, move, cause)
    iteration = 0

    while True:
        if current:
            next_level: list[int] = []
            for cause in current:
                for entry in back[cause]:
                    source, k = entry >> shift, entry & low
                    bit = 1 << k
                    for peer in peers[source]:
                        if allowed[peer] & bit:
                            allowed[peer] ^= bit
                            trace.append((iteration, peer, k, cause))
                            if not allowed[peer] and not doomed[peer]:
                                doomed[peer] = 1
                                next_level.append(peer)
            iteration += 1
            current = sorted(next_level)
            if current:
                levels.append(current)
            continue
        # The sweep stalled.  A node may keep moves yet have lost every
        # route to FINAL (only loops remain); playing there never
        # completes, so the node -- and, since the agent cannot tell the
        # members apart, its whole class -- is doomed as well.
        alive = graph.reaching_final(allowed)
        stranded = [i for i in range(n) if not doomed[i] and not alive[i]]
        if not stranded:
            break
        fresh: list[int] = []
        for node in stranded:
            for member in peers[node]:
                if doomed[member]:
                    continue
                kept = allowed[member]
                for k in range(kept.bit_length()):
                    if kept >> k & 1:
                        trace.append((iteration, member, k, node))
                allowed[member] = 0
                doomed[member] = 1
                fresh.append(member)
        iteration += 1
        current = sorted(fresh)
        levels.append(current)

    nodes, moves = mdp.nodes, graph.moves
    move_sets: dict[int, frozenset[ActionPair]] = {}
    for mask in allowed:
        if mask not in move_sets:
            move_sets[mask] = frozenset(
                pair for k, pair in enumerate(moves) if mask >> k & 1)
    strategy = MultiStrategy(
        allowed={q: move_sets[allowed[i]] for i, q in enumerate(nodes)})
    return SolveReport(
        mdp=mdp,
        win=frozenset(q for i, q in enumerate(nodes) if not doomed[i]),
        strategy=strategy,
        levels=tuple(tuple(nodes[i] for i in level) for level in levels),
        trace=tuple(Removal(r, nodes[i], moves[k], nodes[c])
                    for r, i, k, c in trace))


@dataclass(frozen=True)
class SoundnessVerdict:
    ok: bool
    reason: str
    witness: tuple | None = None  # offending (node, move, successor) or node

    def __bool__(self) -> bool:
        return self.ok


def certify_almost_sure_reach(
    start: Hashable,
    successors: Callable[[Hashable], Iterable[Hashable]],
    target: Hashable,
) -> tuple[bool, Hashable | None]:
    """Certificate that a finite chain from ``start`` reaches ``target``
    with probability one: the target must stay graph-reachable from
    every node the chain can visit.  Returns (ok, offending node).
    """
    reach: set = {start}
    queue: deque = deque([start])
    while queue:
        node = queue.popleft()
        if node == target:
            continue
        for succ in successors(node):
            if succ not in reach:
                reach.add(succ)
                queue.append(succ)

    # Backward sweep from the target, restricted to the reachable part.
    back: dict = {node: [] for node in reach}
    for node in reach:
        if node == target:
            continue
        for succ in successors(node):
            back[succ].append(node)
    can_finish: set = {target} if target in reach else set()
    queue = deque(can_finish)
    while queue:
        node = queue.popleft()
        for pred in back[node]:
            if pred not in can_finish:
                can_finish.add(pred)
                queue.append(pred)

    def stable(node) -> tuple:
        if isinstance(node, BeliefNode):
            return (0, node_key(node))
        return (1, repr(node))

    for node in sorted(reach, key=stable):
        if node not in can_finish:
            return False, node
    return True, None


def check_soundness(mdp: BeliefMDP, strategy: MultiStrategy) -> SoundnessVerdict:
    """Independent audit of a claimed winning multi-strategy.

    Two checks.  Closure: from any node with moves left, every successor
    of every kept move either has moves left too or is the absorbing
    node.  Completion: from the start node (when it has moves), the
    absorbing node stays reachable everywhere the induced chain can go.
    A failed verdict carries a concrete witness.
    """
    win = {q for q, moves in strategy.allowed.items() if moves}
    for q in sorted(win, key=node_key):
        for move in sorted(strategy.allowed[q]):
            if move not in mdp.trans[q]:
                return SoundnessVerdict(
                    False, f"move {move} kept at {q} but never offered there",
                    witness=(q, move, None))
            for succ in mdp.trans[q][move]:
                if not isinstance(succ, _Final) and succ not in win:
                    return SoundnessVerdict(
                        False,
                        f"kept move {move} at {q} can land outside the "
                        f"winning region, at {succ}",
                        witness=(q, move, succ))

    if mdp.initial in win:
        def induced(node):
            if isinstance(node, _Final):
                return ()
            return [s for move in strategy.allowed[node]
                    for s in mdp.trans[node][move]]

        ok, stuck = certify_almost_sure_reach(mdp.initial, induced, FINAL)
        if not ok:
            return SoundnessVerdict(
                False,
                f"induced chain can reach {stuck}, from which completion "
                f"is impossible",
                witness=(stuck,))
    return SoundnessVerdict(True, "closure and completion certificates hold")
