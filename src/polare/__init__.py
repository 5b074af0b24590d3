"""polare: a knowledge-graph engine for relations among political agents.

Typed entities (people, organizations, posts, mandates, votes, elections,
transactions, legal cases) round-trip through a canonical triple wire
format; every fact is a claim with provenance; shape checks, relation
inference and path queries run over the assembled graph.
"""

from .errors import (
    AmbiguousAffiliationError,
    AmbiguousSingletonError,
    AssemblyError,
    ClaimError,
    DanglingReferenceError,
    DuplicateIdError,
    EmptyAssertionError,
    GraphError,
    InvariantError,
    MissingFieldError,
    OrphanSingletonError,
    PolareError,
    SchemeError,
    StoreError,
    TypeConflictError,
    UnknownAgentError,
    UnknownConceptError,
    UnknownPrefixError,
    UnknownSchemeError,
    ValueParseError,
    WireParseError,
)
from .model import (
    AGENT_CLASSES,
    BINDING_KEYS,
    ENTITY_CLASSES,
    Asset,
    CampaignReport,
    Candidacy,
    Concept,
    ConceptScheme,
    DirectRel,
    Election,
    EntityGraph,
    Group,
    Law,
    LegalCase,
    Membership,
    Organization,
    Participation,
    Person,
    Post,
    PropertyReport,
    Proposition,
    Recommendation,
    Referral,
    Session,
    TimeInterval,
    Transaction,
    TransactionObject,
    Vote,
    VoteEvent,
    Voter,
)
from .wire import (
    BlankNode,
    Iri,
    Literal,
    Triple,
    TripleSet,
    parse_triples,
    serialize_triples,
)
from .mapping import assemble_entities, emit_entities
from .singleton import from_singleton, to_singleton
from .schemes import load_bindings, load_scheme, load_schemes_dir
from .claims import (
    Claim,
    ClaimStore,
    Provenance,
    load_claimstore,
    read_claims,
    write_claims,
)
from .validation import (
    ShapeConfig,
    ValidationReport,
    Violation,
    check_candidacy_shape,
    check_concept_domains,
    check_duplicate_membership,
    check_exclusive_occupancy,
    check_membership_within_post,
    check_post_mediation,
    validate_graph,
)
from .inference import (
    ALL_KINDS,
    RelationEdge,
    RelationGraph,
    VoterCheck,
    affiliation_at,
    candidacy_post_edges,
    check_voter_consistency,
    co_case_edges,
    co_membership_edges,
    co_transaction_edges,
    edges_to_jsonl,
    family_edges,
    materialize,
    referral_edges,
)
from .queries import Path, PathQuery, PathStep, find_paths, neighborhood
from .store import Store, load_asserters
from .cli import main, run_cli

__version__ = "0.1.0"
