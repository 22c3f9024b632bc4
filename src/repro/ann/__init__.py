"""Graph-traversal-based ANNS algorithms, implemented from scratch.

The paper evaluates HNSW [59] and DiskANN [70] (plus HCNNG [63] and
TOGG [81] in the discussion).  This package provides faithful Python
implementations of all four, a brute-force exact searcher for ground
truth, recall computation, and — crucially for the simulator — *trace
recording*: every search emits the per-iteration sequence of visited
vertices, which is exactly the memory trace the paper feeds to its
trace-driven simulator (Section VII-A, "Simulation method").
"""

from repro.ann.distance import DistanceMetric, pairwise_distances, distances_to_query
from repro.ann.graph import ProximityGraph
from repro.ann.trace import SearchTrace, TraceRecorder
from repro.ann.search import greedy_beam_search, merge_topk
from repro.ann.bruteforce import BruteForceIndex
from repro.ann.recall import recall_at_k
from repro.ann.hnsw import HNSWIndex, HNSWParams
from repro.ann.diskann import DiskANNIndex, DiskANNParams
from repro.ann.hcnng import HCNNGIndex, HCNNGParams
from repro.ann.togg import TOGGIndex, TOGGParams
from repro.ann.ivf import IVFFlatIndex, IVFParams

__all__ = [
    "DistanceMetric",
    "pairwise_distances",
    "distances_to_query",
    "ProximityGraph",
    "SearchTrace",
    "TraceRecorder",
    "greedy_beam_search",
    "merge_topk",
    "BruteForceIndex",
    "recall_at_k",
    "HNSWIndex",
    "HNSWParams",
    "DiskANNIndex",
    "DiskANNParams",
    "HCNNGIndex",
    "HCNNGParams",
    "TOGGIndex",
    "TOGGParams",
    "IVFFlatIndex",
    "IVFParams",
]
