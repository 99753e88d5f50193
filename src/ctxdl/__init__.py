"""ctxdl: contextual annotation of description-logic ontologies.

Build ontologies over punned terms, attach contextual annotations, rewrite
annotated statements with one of six contextualization strategies in two
families (slicing: NdTerms, NdFluents; reification: RDF, n-ary, n-ary with a
hub concept, singleton property), and check soundness / inconsistency
preservation / entailment preservation with a bounded finite-model oracle.
"""

from .annotation import (
    AnnotatedOntology,
    AnnotatedStatement,
    AnnotationError,
    ContextualAnnotation,
    DisconnectedError,
    NotAnABoxError,
    connected_individuals,
    validate_annotation,
)
from .core import (
    AtLeast,
    AtMost,
    Axiom,
    Bottom,
    Closure,
    Compose,
    ConceptAssert,
    ConceptAtom,
    ConceptExpr,
    ConceptIntersection,
    ConceptNeg,
    ConceptSub,
    ConceptUnion,
    Exists,
    Forall,
    Inverse,
    Nominals,
    Ontology,
    Product,
    RoleAssert,
    RoleAtom,
    RoleExpr,
    RoleIntersection,
    RoleNeg,
    RoleSub,
    RoleUnion,
    Term,
    TermKind,
    Top,
    TopCtx,
    signature_of,
)
from .relativize import (
    AlreadyRelativizedError,
    ContextualTermInSignatureError,
    relativize_axiom,
    relativize_ontology,
)
from .search import DEFAULT_BUDGET, check_entailment, find_model
from .semantics import (
    BoundTooLargeError,
    Interpretation,
    NoCounterexampleUpTo,
    NoModelUpTo,
    NotEntailed,
    SatisfiableAt,
    UnmappedTermError,
    Verdict,
    eval_concept,
    eval_role,
    is_model,
    satisfies,
)
from .strategies import (
    DuplicateContextIdError,
    NonAtomicAssertionWarning,
    RenamingScheme,
    SignatureOverlapWarning,
    Strategy,
    combine_contexts,
    contextualize,
    cx_of_annotation,
)
from .verify import (
    ExtensibilityProbe,
    Outcome,
    PremiseNotEntailedError,
    ProbeResult,
    Property,
    PropertyReport,
    check_entailment_preservation,
    check_inconsistency_preservation,
    check_soundness,
    generate_corpus,
    probe_domain_extensibility,
)

__version__ = "0.1.0"
