"""Fixed IRI vocabulary for the wire representation of domain entities.

Well-known namespaces (FOAF, ORG, SKOS, schema.org, Dublin Core) cover what
they can; everything specific to political-agent relations lives under the
``pol:`` namespace.
"""

RDF = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDF_TYPE = RDF + "type"

OWL = "http://www.w3.org/2002/07/owl#"
OWL_NAMED_INDIVIDUAL = OWL + "NamedIndividual"
OWL_OBJECT_PROPERTY = OWL + "ObjectProperty"

FOAF = "http://xmlns.com/foaf/0.1/"
FOAF_PERSON = FOAF + "Person"
FOAF_GROUP = FOAF + "Group"
FOAF_NAME = FOAF + "name"
FOAF_MEMBER = FOAF + "member"

ORG = "http://www.w3.org/ns/org#"
ORG_ORGANIZATION = ORG + "Organization"
ORG_POST = ORG + "Post"
ORG_MEMBERSHIP = ORG + "Membership"
ORG_ROLE = ORG + "role"
ORG_POST_IN = ORG + "postIn"
ORG_CLASSIFICATION = ORG + "classification"
ORG_SUB_ORGANIZATION_OF = ORG + "subOrganizationOf"
ORG_MEMBER = ORG + "member"  # Membership -> Agent (reified form)
# direct agent<->organization edges; deliberately unused by the model and
# flagged by the post-mediation shape check when found in input data
ORG_MEMBER_OF = ORG + "memberOf"
ORG_HAS_MEMBER = ORG + "hasMember"

SCHEMA = "http://schema.org/"
SCHEMA_START_DATE = SCHEMA + "startDate"
SCHEMA_END_DATE = SCHEMA + "endDate"
SCHEMA_DESCRIPTION = SCHEMA + "description"
SCHEMA_PRODUCT = SCHEMA + "Product"
SCHEMA_SERVICE = SCHEMA + "Service"

DC = "http://purl.org/dc/terms/"
DC_CREATOR = DC + "creator"
DC_TITLE = DC + "title"
DC_DATE = DC + "date"

SKOS = "http://www.w3.org/2004/02/skos/core#"

POL = "http://polare.org/ns#"
POL_DIRECT_REL = POL + "DirectRel"
POL_REFERRAL = POL + "Referral"
POL_PROPOSITION = POL + "Proposition"
POL_LAW = POL + "Law"
POL_SESSION = POL + "Session"
POL_VOTE_EVENT = POL + "VoteEvent"
POL_VOTER = POL + "Voter"
POL_VOTE = POL + "Vote"
POL_RECOMMENDATION = POL + "Recommendation"
POL_ELECTION = POL + "Election"
POL_CANDIDACY = POL + "Candidacy"
POL_TRANSACTION = POL + "Transaction"
POL_CAMPAIGN_REPORT = POL + "CampaignReport"
POL_ASSET = POL + "Asset"
POL_PROPERTY_REPORT = POL + "PropertyReport"
POL_LEGAL_CASE = POL + "LegalCase"

POL_HAS_POST = POL + "hasPost"
POL_EXCLUSIVE = POL + "exclusive"
POL_DIRECT_REL_PROP = POL + "directRelProp"
POL_REL_SOURCE = POL + "relSource"
POL_REL_TARGET = POL + "relTarget"
POL_REFERRER = POL + "referrer"
POL_REFERRED = POL + "referred"
POL_FROM_PROPOSITION = POL + "fromProposition"
POL_ENACTED_ON = POL + "enactedOn"
POL_SESSION_PROP = POL + "session"
POL_PROPOSITION_PROP = POL + "proposition"
POL_DISPOSITION = POL + "disposition"
POL_PERSON_PROP = POL + "person"
POL_PARTY = POL + "party"
POL_VOTE_EVENT_PROP = POL + "voteEvent"
POL_VOTER_PROP = POL + "voter"
POL_VOTE_PROP = POL + "vote"
POL_ISSUED_BY = POL + "issuedBy"
POL_RECOMMENDS = POL + "recommends"
POL_ELECTS_POST = POL + "electsPost"
POL_CANDIDATE = POL + "candidate"
POL_ELECTION_PROP = POL + "election"
POL_POST_PROP = POL + "post"
POL_CAMPAIGN_REPORT_PROP = POL + "campaignReport"
POL_PROPERTY_REPORT_PROP = POL + "propertyReport"
POL_PARTICIPANT = POL + "participant"
POL_AGENT = POL + "agent"
POL_ROLE = POL + "role"
POL_TRANSACTION_OBJECT = POL + "transactionObject"
POL_AMOUNT = POL + "amount"
POL_CURRENCY = POL + "currency"
POL_TRANSACTION_PROP = POL + "transaction"
POL_CANDIDACY_PROP = POL + "candidacy"
POL_OWNER = POL + "owner"
POL_VALUE = POL + "value"
POL_ACQUIRED_VIA = POL + "acquiredVia"
POL_ASSET_PROP = POL + "asset"

POL_OCCUPIES = POL + "occupies"
POL_SINGLETON_PROPERTY_OF = POL + "singletonPropertyOf"

#: prefix map matching the namespaces above, handy for writing fixtures
PREFIXES = {
    "rdf": RDF,
    "owl": OWL,
    "foaf": FOAF,
    "org": ORG,
    "schema": SCHEMA,
    "dc": DC,
    "skos": SKOS,
    "xsd": "http://www.w3.org/2001/XMLSchema#",
    "pol": POL,
}
