"""Cross-queue command DAG for a scheduled ready-queue pool.

The runtime may re-map command queues to devices behind the user's back, so
the only ordering that survives scheduling is the one expressed through the
command graph itself: intra-queue program order (in-order queues), barriers
(out-of-order queues), and explicit event wait lists.  This module builds
that graph for a pool of queues holding deferred commands, in two views:

* **issue-blocking edges** (:attr:`CommandNode.blocks_on`) — what must
  issue before a command can issue.  Mirrors
  :meth:`~repro.ocl.context.Context.issue_pool` exactly: every command
  blocks on its queue predecessor (head-of-line issue, even on
  out-of-order queues) and on every still-deferred wait-list event.  A
  cycle here is a guaranteed issue deadlock.
* **happens-before edges** (:attr:`CommandNode.hb_succ`) — what is
  guaranteed to *execute* before what.  In-order queues chain program
  order; out-of-order queues order only around barriers; wait lists order
  producer before waiter.  Two commands touching the same buffer with no
  happens-before path between them race.

Alongside both views the graph keeps a **per-buffer access index**
(:attr:`CommandGraph.buffers`): for every buffer the pool touches, the
nodes that write it and the nodes that only read it, in node order.  It is
the one definition of a *conflict* — same buffer, at least one writer —
shared by the sanitizer (:mod:`repro.analysis.validator`) and the overlap
relaxer (:mod:`repro.ocl.overlap`).  Building it costs O(accesses) and
listing the conflicting pairs O(pairs) plus one sort, in place of a scan
over all n² node pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.ocl.enums import CommandKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.ocl.event import Event
    from repro.ocl.memory import Buffer
    from repro.ocl.queue import Command, CommandQueue

__all__ = ["BufferAccess", "CommandNode", "CommandGraph", "build_command_graph",
           "reach_masks"]


@dataclass
class CommandNode:
    """One deferred command in the pool graph."""

    index: int
    queue: "CommandQueue"
    position: int  # position within queue.pending
    command: "Command"
    reads: Tuple["Buffer", ...]
    writes: Tuple["Buffer", ...]
    #: node indexes this command must wait for before it can *issue*
    blocks_on: List[int] = field(default_factory=list)
    #: node indexes guaranteed to execute *after* this command
    hb_succ: List[int] = field(default_factory=list)

    @property
    def label(self) -> str:
        return f"{self.queue.name}[{self.position}]:{self.command.kind.value}"


@dataclass
class BufferAccess:
    """Who touches one buffer in the pool, in node order."""

    buffer: "Buffer"
    #: nodes that write the buffer (whether or not they also read it)
    writers: List[int] = field(default_factory=list)
    #: nodes that only read the buffer
    readers: List[int] = field(default_factory=list)

    def conflict_pairs(self) -> List[Tuple[int, int]]:
        """Sorted ``(i, j)`` node pairs, ``i < j``, with at least one writer."""
        pairs = []
        writers, readers = self.writers, self.readers
        for k, w in enumerate(writers):
            pairs.extend((w, x) for x in writers[k + 1:])
            pairs.extend((w, r) if w < r else (r, w) for r in readers)
        pairs.sort()
        return pairs


def reach_masks(succ: Sequence[Sequence[int]]) -> List[int]:
    """Per-node bitmask of the nodes transitively reachable over ``succ``
    (a node's own bit is never set)."""
    n = len(succ)
    masks = [0] * n
    # Highest index first: program-order edges point forward, so most
    # walks stop at their first successor, whose mask is already known.
    for start in range(n - 1, -1, -1):
        seen = 1 << start
        stack = [start]
        while stack:
            cur = stack.pop()
            # Reuse already-computed masks (cur > start is complete).
            done = masks[cur]
            if cur != start and done:
                seen |= done
                continue
            for nxt in succ[cur]:
                bit = 1 << nxt
                if not seen & bit:
                    seen |= bit
                    stack.append(nxt)
        masks[start] = seen & ~(1 << start)
    return masks


@dataclass
class CommandGraph:
    """The pool DAG plus everything the validator needs alongside it."""

    nodes: List[CommandNode]
    #: (waiting node, unissuable event) pairs found while resolving wait
    #: lists: the event's command is neither issued nor pending on any
    #: pooled queue, so the waiter can never become ready.
    orphans: List[Tuple[CommandNode, "Event"]]
    #: per-buffer access index, keyed by ``id(buffer)`` in first-touch order
    buffers: Dict[int, BufferAccess] = field(default_factory=dict)

    def conflict_pairs(self) -> List[Tuple[int, int]]:
        """Every ``(i, j)`` node pair, ``i < j``, sharing a buffer that at
        least one of them writes; deduplicated and sorted ascending."""
        pairs = set()
        for access in self.buffers.values():
            pairs.update(access.conflict_pairs())
        return sorted(pairs)

    # -- reachability over happens-before edges -------------------------
    def happens_before(self, a: int, b: int) -> bool:
        """True if node ``a`` is ordered (transitively) before node ``b``."""
        return bool(self.hb_masks()[a] & (1 << b))

    def ordered(self, a: int, b: int) -> bool:
        """True if a happens-before path runs either way between the two."""
        masks = self.hb_masks()
        return bool(masks[a] & (1 << b)) or bool(masks[b] & (1 << a))

    def hb_masks(self) -> List[int]:
        """Per-node bitmask of nodes reachable over happens-before edges."""
        cached = getattr(self, "_reach_cache", None)
        if cached is None:
            cached = reach_masks([node.hb_succ for node in self.nodes])
            self._reach_cache = cached
        return cached

    # -- deadlock detection over issue-blocking edges --------------------
    def find_issue_cycle(self) -> Optional[List[CommandNode]]:
        """First cycle in the issue-blocking graph, or None.

        Returns the nodes along the cycle in wait order (each node blocks
        on the next; the last blocks on the first).
        """
        WHITE, GREY, BLACK = 0, 1, 2
        color = [WHITE] * len(self.nodes)
        for root in range(len(self.nodes)):
            if color[root] != WHITE:
                continue
            # Iterative DFS keeping the grey path explicit.
            stack: List[Tuple[int, int]] = [(root, 0)]
            path: List[int] = []
            while stack:
                node, edge = stack[-1]
                if edge == 0:
                    color[node] = GREY
                    path.append(node)
                deps = self.nodes[node].blocks_on
                if edge < len(deps):
                    stack[-1] = (node, edge + 1)
                    dep = deps[edge]
                    if color[dep] == GREY:
                        # path[i] blocks on path[i+1]; the back edge
                        # node -> dep closes the loop.
                        cycle = path[path.index(dep):]
                        return [self.nodes[i] for i in cycle]
                    if color[dep] == WHITE:
                        stack.append((dep, 0))
                else:
                    stack.pop()
                    path.pop()
                    color[node] = BLACK
        return None


def build_command_graph(pool: Sequence["CommandQueue"]) -> CommandGraph:
    """Build the command DAG over every deferred command of ``pool``."""
    nodes: List[CommandNode] = []
    by_command: Dict[int, CommandNode] = {}
    buffers: Dict[int, BufferAccess] = {}
    for q in pool:
        for pos, cmd in enumerate(q.pending):
            reads, writes = cmd.access_sets()
            index = len(nodes)
            write_ids = {id(b) for b in writes}
            for buf in writes + reads:
                access = buffers.get(id(buf))
                if access is None:
                    access = buffers[id(buf)] = BufferAccess(buf)
                role = access.writers if id(buf) in write_ids else access.readers
                if not role or role[-1] != index:
                    role.append(index)
            node = CommandNode(
                index=index,
                queue=q,
                position=pos,
                command=cmd,
                reads=reads,
                writes=writes,
            )
            nodes.append(node)
            by_command[id(cmd)] = node

    graph = CommandGraph(nodes=nodes, orphans=[], buffers=buffers)

    for q in pool:
        prev: Optional[CommandNode] = None
        last_barrier: Optional[CommandNode] = None
        queue_nodes: List[CommandNode] = []
        for pos, cmd in enumerate(q.pending):
            node = by_command[id(cmd)]
            # Issue order is head-of-line on every queue (issue_pool only
            # ever considers pending[0]).
            if prev is not None:
                node.blocks_on.append(prev.index)
            # Happens-before: program order (in-order) or barriers (OOO).
            if not q.out_of_order:
                if prev is not None:
                    prev.hb_succ.append(node.index)
            elif cmd.kind is CommandKind.BARRIER:
                for earlier in queue_nodes:
                    if node.index not in earlier.hb_succ:
                        earlier.hb_succ.append(node.index)
                last_barrier = node
            elif last_barrier is not None:
                last_barrier.hb_succ.append(node.index)
            # Wait lists: producer happens-before waiter; a still-deferred
            # producer also blocks issue.
            for event in cmd.wait_events:
                if not event.deferred:
                    continue  # already issued: ordered before the whole pool
                producer = by_command.get(id(event.command))
                if producer is None:
                    graph.orphans.append((node, event))
                    continue
                if producer.index != node.index:
                    node.blocks_on.append(producer.index)
                    producer.hb_succ.append(node.index)
            prev = node
            queue_nodes.append(node)
    return graph
