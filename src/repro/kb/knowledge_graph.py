"""The knowledge graph: triples, adjacency queries, and candidate
sub-matrices for Bootleg's ``KG2Ent`` module.

Two kinds of pairwise features back ``KG2Ent`` (Section 3.2 / B.2):

- the Wikidata-like triple adjacency (are two entities connected?);
- a sentence co-occurrence matrix mined from the training corpus
  (log-count weighted, zeroed under a minimum count), used by the
  benchmark model as a second ``KG2Ent`` module.

Both are exposed through :meth:`KnowledgeGraph.candidate_adjacency`,
which extracts the (M*K, M*K) sub-matrix for one sentence's candidate
set — the ``K`` matrix of the paper. The lookup runs over a sorted
index of directed edge keys ``a * num_entities + b`` (one per
``use_weights`` value, built on first use), so it needs only numpy.
The keys are exact while ``num_entities ** 2 < 2 ** 63``.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.errors import KnowledgeBaseError
from repro.kb.schema import Triple


class KnowledgeGraph:
    """Adjacency structure over entity ids with optional edge weights."""

    def __init__(self, num_entities: int, triples: Iterable[Triple] = ()) -> None:
        if num_entities <= 0:
            raise KnowledgeBaseError("num_entities must be positive")
        self.num_entities = num_entities
        self._triples: list[Triple] = []
        # neighbor id -> set of relation ids connecting the pair
        self._adjacency: dict[int, dict[int, set[int]]] = {}
        self._weights: dict[tuple[int, int], float] = {}
        # use_weights -> (sorted edge keys, their values), built on first use.
        self._edge_index: dict[bool, tuple[np.ndarray, np.ndarray]] = {}
        for triple in triples:
            self.add_triple(triple)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _check_id(self, entity_id: int) -> None:
        if not 0 <= entity_id < self.num_entities:
            raise KnowledgeBaseError(
                f"entity id {entity_id} out of range [0, {self.num_entities})"
            )

    def add_triple(self, triple: Triple) -> None:
        """Record a triple; adjacency is treated as undirected."""
        self._check_id(triple.subject_id)
        self._check_id(triple.object_id)
        self._edge_index.clear()  # invalidate views
        self._triples.append(triple)
        self._adjacency.setdefault(triple.subject_id, {}).setdefault(
            triple.object_id, set()
        ).add(triple.relation_id)
        self._adjacency.setdefault(triple.object_id, {}).setdefault(
            triple.subject_id, set()
        ).add(triple.relation_id)

    def add_weighted_edge(self, a: int, b: int, weight: float) -> None:
        """Record a weighted pairwise feature (e.g. log co-occurrence)."""
        self._check_id(a)
        self._check_id(b)
        if weight < 0:
            raise KnowledgeBaseError(f"edge weight must be non-negative, got {weight}")
        self._edge_index.clear()  # invalidate views
        key = (min(a, b), max(a, b))
        self._weights[key] = max(self._weights.get(key, 0.0), weight)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_triples(self) -> int:
        """Number of recorded triples."""
        return len(self._triples)

    def triples(self) -> list[Triple]:
        """Copy of the recorded triples."""
        return list(self._triples)

    def connected(self, a: int, b: int) -> bool:
        """True if ``a`` and ``b`` share a triple (either direction)."""
        return b in self._adjacency.get(a, {})

    def edge_weight(self, a: int, b: int) -> float:
        """Weight for the pair: 1.0 for a triple edge, else the recorded
        weighted-edge value (0.0 if none)."""
        if self.connected(a, b):
            return 1.0
        return self._weights.get((min(a, b), max(a, b)), 0.0)

    def relations_between(self, a: int, b: int) -> set[int]:
        """Relation ids on edges between ``a`` and ``b`` (undirected)."""
        return set(self._adjacency.get(a, {}).get(b, set()))

    def neighbors(self, entity_id: int) -> set[int]:
        """Entities sharing a triple with ``entity_id``."""
        return set(self._adjacency.get(entity_id, {}))

    def degree(self, entity_id: int) -> int:
        """Number of distinct neighbors."""
        return len(self._adjacency.get(entity_id, {}))

    def shared_neighbors(self, a: int, b: int) -> set[int]:
        """Entities connected to both ``a`` and ``b`` (2-hop witnesses).

        Used by the multi-hop error bucket of Section 5: Bootleg only
        encodes direct connections, so examples whose gold entities are
        linked only through a shared neighbor are a known failure mode.
        """
        return self.neighbors(a) & self.neighbors(b)

    # ------------------------------------------------------------------
    # Matrices for KG2Ent
    # ------------------------------------------------------------------
    def _edges(self, use_weights: bool) -> tuple[np.ndarray, np.ndarray]:
        """Sorted int64 keys ``a * num_entities + b`` of every directed
        edge and their float64 values, ending in a sentinel key that no
        pair reaches (so a search never runs off the end).

        Triple edges have value 1.0. With ``use_weights``, a pair with
        only a weighted edge has its recorded weight.
        """
        index = self._edge_index.get(use_weights)
        if index is not None:
            return index
        n = self.num_entities
        keys = [a * n + b for a, row in self._adjacency.items() for b in row]
        values = [1.0] * len(keys)
        if use_weights:
            for (a, b), weight in self._weights.items():
                # Triple edges take precedence (weight 1.0, already added).
                if b not in self._adjacency.get(a, {}):
                    keys.extend((a * n + b, b * n + a))
                    values.extend((weight, weight))
        keys.append(np.iinfo(np.int64).max)
        values.append(0.0)
        # np.unique sorts the keys and keeps one of the two copies a
        # weighted self-pair lists.
        unique, first = np.unique(np.asarray(keys, dtype=np.int64), return_index=True)
        index = (unique, np.asarray(values, dtype=np.float64)[first])
        self._edge_index[use_weights] = index
        return index

    def candidate_adjacency(
        self,
        candidate_ids: np.ndarray,
        use_weights: bool = False,
        pad_id: int = -1,
    ) -> np.ndarray:
        """Extract the K matrix for one sentence's flattened candidates.

        Parameters
        ----------
        candidate_ids:
            1-D integer array (length M*K) of entity ids; entries equal to
            ``pad_id`` are padding and receive no edges. Every other entry
            must lie in ``[0, num_entities)``.
        use_weights:
            If True, use weighted edges (co-occurrence); otherwise binary
            triple adjacency.

        Returns
        -------
        (L, L) float64 matrix where L = len(candidate_ids). Identical
        entity ids are left unlinked (a mention's duplicate candidates
        must not boost each other), and padded entries receive no edges.

        Raises
        ------
        KnowledgeBaseError
            If a non-pad id lies outside ``[0, num_entities)``: its key
            would alias another pair's.

        Implementation: the L×L grid of pair keys ``a * num_entities + b``
        is looked up in the sorted edge-key index with one
        ``np.searchsorted``, so a sentence costs a few numpy calls over
        L² keys. Keys are exact while ``num_entities ** 2 < 2 ** 63``.
        """
        ids = np.asarray(candidate_ids, dtype=np.int64)
        valid = ids != pad_id
        bad = valid & ((ids < 0) | (ids >= self.num_entities))
        if bad.any():
            raise KnowledgeBaseError(
                f"candidate ids {ids[bad].tolist()} out of range "
                f"[0, {self.num_entities}) and not the pad id {pad_id}"
            )
        keys, values = self._edges(use_weights)
        grid = ids[:, None] * self.num_entities + ids[None, :]
        found = np.searchsorted(keys, grid)
        # Padded rows/columns (whose keys mean nothing) and same-entity
        # pairs get no edge.
        linked = (
            (keys[found] == grid)
            & valid[:, None]
            & valid[None, :]
            & (ids[:, None] != ids[None, :])
        )
        return np.where(linked, values[found], 0.0)


class TwoHopKnowledgeGraph:
    """Two-hop view of a knowledge graph (the paper's stated limitation).

    Section 5's multi-hop error bucket arises because Bootleg's KG2Ent
    only sees direct edges: in the Stillwater example, none of the gold
    entities are directly connected but all share the neighbor
    "Oklahoma". This wrapper exposes the same ``candidate_adjacency``
    interface as :class:`KnowledgeGraph` but weights a candidate pair by
    ``log1p(#shared neighbors)``, so it can be plugged into the model as
    an additional ``KG2Ent`` adjacency without any model changes.
    """

    def __init__(self, base: KnowledgeGraph, include_direct: bool = False) -> None:
        self.base = base
        self.include_direct = include_direct
        self.num_entities = base.num_entities

    def candidate_adjacency(
        self,
        candidate_ids: np.ndarray,
        use_weights: bool = True,
        pad_id: int = -1,
    ) -> np.ndarray:
        """Shared-neighbor sub-matrix with the base-graph interface."""
        ids = np.asarray(candidate_ids, dtype=np.int64)
        length = ids.shape[0]
        matrix = np.zeros((length, length), dtype=np.float64)
        neighbor_sets = {
            int(e): self.base.neighbors(int(e)) for e in set(ids) if e != pad_id
        }
        for i in range(length):
            if ids[i] == pad_id:
                continue
            a = int(ids[i])
            for j in range(i + 1, length):
                if ids[j] == pad_id or ids[i] == ids[j]:
                    continue
                b = int(ids[j])
                if not self.include_direct and self.base.connected(a, b):
                    continue
                shared = (neighbor_sets[a] & neighbor_sets[b]) - {a, b}
                if shared:
                    weight = float(np.log1p(len(shared)))
                    matrix[i, j] = weight
                    matrix[j, i] = weight
        return matrix


def build_cooccurrence_graph(
    num_entities: int,
    sentence_entity_lists: Iterable[Iterable[int]],
    min_count: int = 10,
) -> KnowledgeGraph:
    """Build the sentence co-occurrence KG of Appendix B.2.

    Edge weight is ``log(count)`` of the number of sentences in which two
    entities co-occur, zeroed when the count is below ``min_count``.
    """
    counts: dict[tuple[int, int], int] = {}
    for entity_ids in sentence_entity_lists:
        unique = sorted(set(entity_ids))
        for i, a in enumerate(unique):
            for b in unique[i + 1 :]:
                counts[(a, b)] = counts.get((a, b), 0) + 1
    graph = KnowledgeGraph(num_entities)
    for (a, b), count in counts.items():
        if count >= min_count:
            graph.add_weighted_edge(a, b, float(np.log(count)))
    return graph
