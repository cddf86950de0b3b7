"""Port-numbered graph structure used by the LOCAL simulation engine.

The LOCAL model's communication network is an undirected graph in which
every vertex numbers its incident edges with *ports* ``0 .. deg(v)-1``.
A vertex addresses its neighbors only through port numbers; it does not
a priori know the identity of the vertex on the other end of a port.

:class:`Graph` stores, for every vertex, the ordered list of incident
half-edges.  For vertex ``v`` and port ``p`` we record both the neighbor
``u = endpoint(v, p)`` and the *reverse port* ``q = reverse_port(v, p)``
such that ``endpoint(u, q) == v``.  Reverse ports let the engine route a
message sent by ``v`` on port ``p`` into the correct inbox slot of ``u``,
exactly as a physical bidirectional link would.

Graphs are immutable after construction.  All vertices are integers
``0 .. n-1``; these indices are *simulation handles* and are never exposed
to DetLOCAL/RandLOCAL algorithms as identifiers (IDs are assigned
separately, see :mod:`repro.core.ids`).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

Edge = Tuple[int, int]


class GraphError(ValueError):
    """Raised when a graph is constructed from invalid input."""


class Graph:
    """An immutable undirected port-numbered graph.

    Parameters
    ----------
    n:
        Number of vertices.  Vertices are ``0 .. n-1``.
    edges:
        Iterable of ``(u, v)`` pairs.  Self loops and parallel edges are
        rejected: the LOCAL-model problems in this project are defined on
        simple graphs.

    Examples
    --------
    >>> g = Graph(3, [(0, 1), (1, 2)])
    >>> g.degree(1)
    2
    >>> sorted(g.neighbors(1))
    [0, 2]
    """

    __slots__ = ("_n", "_adj", "_rev", "_m", "_edge_list", "_max_degree")

    def __init__(self, n: int, edges: Iterable[Edge]):
        if n < 0:
            raise GraphError(f"vertex count must be non-negative, got {n}")
        adj: List[List[int]] = [[] for _ in range(n)]
        rev: List[List[int]] = [[] for _ in range(n)]
        seen = set()
        edge_list: List[Edge] = []
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"self loop at vertex {u} is not allowed")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise GraphError(f"parallel edge ({u}, {v}) is not allowed")
            seen.add(key)
            edge_list.append(key)
            pu = len(adj[u])
            pv = len(adj[v])
            adj[u].append(v)
            adj[v].append(u)
            rev[u].append(pv)
            rev[v].append(pu)
        self._n = n
        self._adj = adj
        self._rev = rev
        self._m = len(edge_list)
        self._edge_list = edge_list
        self._max_degree = max(map(len, adj), default=0)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of edges ``m``."""
        return self._m

    def vertices(self) -> range:
        """All vertices, as a range."""
        return range(self._n)

    def edges(self) -> Iterator[Edge]:
        """All edges as ``(u, v)`` with ``u < v``, in insertion order."""
        return iter(self._edge_list)

    def degree(self, v: int) -> int:
        """Degree of vertex ``v``."""
        return len(self._adj[v])

    @property
    def max_degree(self) -> int:
        """Maximum degree Δ of the graph (0 for the empty graph)."""
        return self._max_degree

    def neighbors(self, v: int) -> Sequence[int]:
        """Neighbors of ``v`` in port order.  Do not mutate the result."""
        return self._adj[v]

    def endpoint(self, v: int, port: int) -> int:
        """The vertex at the other end of ``v``'s port ``port``."""
        return self._adj[v][port]

    def reverse_port(self, v: int, port: int) -> int:
        """The port of ``endpoint(v, port)`` that leads back to ``v``."""
        return self._rev[v][port]

    def reverse_ports(self, v: int) -> List[int]:
        """All reverse ports of ``v`` at once: element ``p`` is the port
        of ``endpoint(v, p)`` that leads back to ``v``.  Returns a fresh
        list (callers may keep or mutate it)."""
        return list(self._rev[v])

    def port_of(self, v: int, u: int) -> int:
        """The port of ``v`` whose endpoint is ``u``.

        Raises
        ------
        GraphError
            If ``u`` is not a neighbor of ``v``.
        """
        try:
            return self._adj[v].index(u)
        except ValueError:
            raise GraphError(f"{u} is not a neighbor of {v}") from None

    def has_edge(self, u: int, v: int) -> bool:
        """Whether ``{u, v}`` is an edge."""
        return v in self._adj[u]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._n == other._n and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self._n, tuple(tuple(a) for a in self._adj)))

    def __repr__(self) -> str:
        return f"Graph(n={self._n}, m={self._m})"

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------
    def is_regular(self, d: Optional[int] = None) -> bool:
        """Whether every vertex has the same degree (``d`` if given)."""
        if self._n == 0:
            return True
        degrees = {len(a) for a in self._adj}
        if len(degrees) != 1:
            return False
        if d is None:
            return True
        return degrees == {d}

    def connected_components(self) -> List[List[int]]:
        """Connected components, each a sorted vertex list."""
        seen = [False] * self._n
        components: List[List[int]] = []
        for start in range(self._n):
            if seen[start]:
                continue
            stack = [start]
            seen[start] = True
            comp = []
            while stack:
                v = stack.pop()
                comp.append(v)
                for u in self._adj[v]:
                    if not seen[u]:
                        seen[u] = True
                        stack.append(u)
            comp.sort()
            components.append(comp)
        return components

    def is_connected(self) -> bool:
        """Whether the graph is connected (the empty graph is connected)."""
        return len(self.connected_components()) <= 1

    def is_forest(self) -> bool:
        """Whether the graph is acyclic."""
        return self._m == self._n - len(self.connected_components())

    def is_tree(self) -> bool:
        """Whether the graph is connected and acyclic."""
        return self.is_forest() and self.is_connected()

    def bfs_distances(self, source: int, cutoff: Optional[int] = None) -> Dict[int, int]:
        """Map of vertex -> distance from ``source``, up to ``cutoff``."""
        dist = {source: 0}
        frontier = [source]
        d = 0
        while frontier and (cutoff is None or d < cutoff):
            d += 1
            nxt = []
            for v in frontier:
                for u in self._adj[v]:
                    if u not in dist:
                        dist[u] = d
                        nxt.append(u)
            frontier = nxt
        return dist

    def ball(self, center: int, radius: int) -> List[int]:
        """Sorted vertices within distance ``radius`` of ``center``."""
        return sorted(self.bfs_distances(center, cutoff=radius))

    def girth(self) -> Optional[int]:
        """Length of the shortest cycle, or ``None`` if acyclic.

        Runs one truncated BFS per vertex; exact for simple graphs.
        """
        cycle = self.shortest_cycle()
        return len(cycle) if cycle is not None else None

    def shortest_cycle(
        self, shorter_than: Optional[int] = None
    ) -> Optional[List[int]]:
        """A shortest cycle as a vertex list, or ``None`` if acyclic.

        One truncated BFS per root; when a non-tree edge closes a cycle,
        the witness is reconstructed through the BFS-tree paths (trimmed
        at their meeting point, so the reported length is exact).

        With ``shorter_than`` set, only cycles of length strictly below
        it are searched for (``None`` returned otherwise) — the BFS depth
        is then bounded, which is much faster on high-girth graphs.
        """
        best: Optional[List[int]] = None
        for root in range(self._n):
            dist = {root: 0}
            parent = {root: -1}
            frontier = [root]
            while frontier:
                bound = shorter_than
                if best is not None and (bound is None or len(best) < bound):
                    bound = len(best)
                if bound is not None and 2 * dist[frontier[0]] >= bound:
                    break
                nxt = []
                for v in frontier:
                    for u in self._adj[v]:
                        if u not in dist:
                            dist[u] = dist[v] + 1
                            parent[u] = v
                            nxt.append(u)
                        elif parent[v] != u and dist[u] >= dist[v]:
                            cycle = _close_cycle(parent, v, u)
                            if (
                                cycle is not None
                                and (best is None or len(cycle) < len(best))
                                and (
                                    shorter_than is None
                                    or len(cycle) < shorter_than
                                )
                            ):
                                best = cycle
                frontier = nxt
        return best

    def short_cycles(self, shorter_than: int) -> List[List[int]]:
        """A greedy batch of vertex-disjoint cycles, each of length
        strictly below ``shorter_than``.

        Used by girth repair: fixing a whole batch between rescans is
        much cheaper than one full scan per cycle.  The batch is not
        guaranteed maximal or shortest-first.
        """
        blocked = [False] * self._n
        found: List[List[int]] = []
        for root in range(self._n):
            if blocked[root]:
                continue
            dist = {root: 0}
            parent = {root: -1}
            frontier = [root]
            witness: Optional[List[int]] = None
            while frontier and witness is None:
                if 2 * dist[frontier[0]] >= shorter_than:
                    break
                nxt = []
                for v in frontier:
                    if blocked[v]:
                        continue
                    for u in self._adj[v]:
                        if blocked[u]:
                            continue
                        if u not in dist:
                            dist[u] = dist[v] + 1
                            parent[u] = v
                            nxt.append(u)
                        elif parent[v] != u and dist[u] >= dist[v]:
                            cycle = _close_cycle(parent, v, u)
                            if cycle is not None and len(cycle) < shorter_than:
                                witness = cycle
                                break
                    if witness is not None:
                        break
                frontier = nxt
            if witness is not None:
                for x in witness:
                    blocked[x] = True
                found.append(witness)
        return found

    def diameter(self) -> int:
        """Diameter of a connected graph.

        Raises
        ------
        GraphError
            If the graph is empty or disconnected.
        """
        if self._n == 0:
            raise GraphError("diameter of the empty graph is undefined")
        if not self.is_connected():
            raise GraphError("diameter of a disconnected graph is undefined")
        best = 0
        for v in range(self._n):
            best = max(best, max(self.bfs_distances(v).values()))
        return best

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def induced_subgraph(self, keep: Iterable[int]) -> Tuple["Graph", List[int]]:
        """The subgraph induced by ``keep``.

        Returns
        -------
        (subgraph, originals):
            ``originals[i]`` is the original index of subgraph vertex ``i``.
        """
        originals = sorted(set(keep))
        index = {v: i for i, v in enumerate(originals)}
        edges = [
            (index[u], index[v])
            for u, v in self._edge_list
            if u in index and v in index
        ]
        return Graph(len(originals), edges), originals

    def power_graph(self, k: int) -> "Graph":
        """The graph ``G^k``: same vertices, edges between distinct
        vertices at distance at most ``k`` in ``G``."""
        if k < 1:
            raise GraphError(f"power must be >= 1, got {k}")
        edges = []
        for v in range(self._n):
            for u, d in self.bfs_distances(v, cutoff=k).items():
                if u > v and d >= 1:
                    edges.append((v, u))
        return Graph(self._n, edges)

    def distance_k_graph(self, k: int) -> "Graph":
        """The graph with edges between vertices at distance *exactly* k."""
        if k < 1:
            raise GraphError(f"distance must be >= 1, got {k}")
        edges = []
        for v in range(self._n):
            for u, d in self.bfs_distances(v, cutoff=k).items():
                if u > v and d == k:
                    edges.append((v, u))
        return Graph(self._n, edges)


def _close_cycle(
    parent: Dict[int, int], v: int, u: int
) -> Optional[List[int]]:
    """The simple cycle formed by BFS-tree paths of ``v`` and ``u`` plus
    the non-tree edge ``{v, u}``, trimmed at the paths' meeting point."""

    def path_to_root(x: int) -> List[int]:
        out = [x]
        while parent[x] != -1:
            x = parent[x]
            out.append(x)
        return out

    pv = path_to_root(v)
    pu = path_to_root(u)
    in_pv = {x: i for i, x in enumerate(pv)}
    # First vertex of u's path that also lies on v's path is the meeting
    # point (LCA in the BFS tree).
    for j, x in enumerate(pu):
        if x in in_pv:
            i = in_pv[x]
            cycle = pv[: i + 1] + pu[:j][::-1]
            return cycle if len(cycle) >= 3 else None
    return None


def from_edge_list(edges: Iterable[Edge], n: Optional[int] = None) -> Graph:
    """Build a :class:`Graph` from an edge list, inferring ``n`` if absent."""
    edge_list = list(edges)
    if n is None:
        n = 1 + max((max(u, v) for u, v in edge_list), default=-1)
    return Graph(n, edge_list)
