"""Model-relationship graph (the paper's §VIII future work).

    "A critical innovative component of our framework is the propose and
    construction of the model-relationship graph.  Firstly, we would like
    to design a fast method to construct this efficiently and effectively."

This package constructs that graph from recorded zoo executions: nodes are
models, and a directed edge ``i -> j`` carries the empirical lift that
model ``i``'s valuable output gives to the probability that model ``j`` is
also valuable.  The graph powers a transparent value predictor
(:class:`~repro.graph.policy.GraphPredictor`) that sits between the
handcrafted rules of Table II and the learned DRL agent — it is, in
effect, the *automatically learned* version of Table II.
"""

from repro.graph.relationship import ModelRelationshipGraph, build_relationship_graph
from repro.graph.policy import GraphPredictor

__all__ = ["ModelRelationshipGraph", "build_relationship_graph", "GraphPredictor"]
