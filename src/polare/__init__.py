"""polare: a knowledge-graph engine for relations among political agents.

Typed entities (people, organizations, posts, mandates, votes, elections,
transactions, legal cases) round-trip through a canonical triple wire
format; every fact is a claim with provenance; shape checks, relation
inference and path queries run over the assembled graph.
"""

__version__ = "0.1.0"
