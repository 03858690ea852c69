"""The Privacy-MaxEnt engine — the paper's contribution, end to end.

:class:`ReleaseModel` is the one place a release's program is built, once
per release, since both parts depend on ``D'`` alone:

1. index the published bucketized data into a variable space (group-level,
   or person-level when individual knowledge is involved, Section 6),
2. derive the data invariants of Section 5 as equality rows.

Only the background knowledge (Sections 4 and 6) depends on the bound.
:class:`PrivacyMaxEnt` takes a release or its model, compiles the
knowledge into further rows, solves for the maximum-entropy joint
(Section 3) and exposes the posterior ``P*(SA | QI)`` that privacy
metrics consume.  The service's registered releases hold a model too.

:func:`assess` adds the Section 4.3 workflow on top: given the original
data and a list of candidate Top-(K+, K-) bounds, it mines the rules and
builds the model once, and returns one (bound, privacy score) assessment
per bound, each scored by :func:`score_posterior` (which the service's
``/assess`` shares).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.anonymize.buckets import BucketizedTable
from repro.core.accuracy import estimation_accuracy
from repro.engine.engine import PrivacyEngine, shared_engine
from repro.core.metrics import (
    bayes_vulnerability,
    effective_l,
    expected_posterior_entropy,
    max_disclosure,
)
from repro.core.quantifier import PosteriorTable, person_posterior
from repro.core.report import PrivacyAssessment
from repro.data.table import Table
from repro.errors import KnowledgeError, ReproError
from repro.knowledge.bounds import TopKBound
from repro.knowledge.compiler import compile_statements
from repro.knowledge.individuals import IndividualStatement, PseudonymTable
from repro.knowledge.mining import MiningConfig, RuleSet, mine_association_rules
from repro.maxent.constraints import ConstraintSystem, data_constraints
from repro.maxent.indexing import GroupVariableSpace, PersonVariableSpace
from repro.maxent.solution import MaxEntSolution, SolverStats
from repro.maxent.solver import MaxEntConfig
from repro.utils.timer import Timer


class ReleaseModel:
    """One release's variable space (group-level, or with ``individuals``
    person-level over a :class:`PseudonymTable`) and data rows, built once."""

    def __init__(
        self, published: BucketizedTable, *, individuals: bool = False
    ) -> None:
        self.published = published
        self.pseudonyms = PseudonymTable(published) if individuals else None
        self.space: GroupVariableSpace | PersonVariableSpace = (
            PersonVariableSpace(self.pseudonyms)
            if individuals
            else GroupVariableSpace(published)
        )
        self._data = data_constraints(self.space)
        self._data.equality_arrays()  # compacted once; compiles only read it

    def compile(self, statements: Iterable) -> tuple[ConstraintSystem, int, float]:
        """``(system, n_knowledge_rows, seconds)`` for ``statements``: a
        fresh system of the data rows (appended by block reference) and
        the compiled knowledge rows, and the compile wall time."""
        with Timer() as timer:
            system = ConstraintSystem(self.space.n_vars)
            system.extend(self._data)
            knowledge = compile_statements(list(statements), self.space)
            system.extend(knowledge)
        n_rows = knowledge.n_equalities + knowledge.n_inequalities
        return system, n_rows, timer.seconds


class PrivacyMaxEnt:
    """Compute ``P*(SA | QI)`` for a bucketized release under knowledge.

    Parameters
    ----------
    published:
        The bucketized release ``D'``, or its prebuilt
        :class:`ReleaseModel` (shared across many knowledge sets).
    knowledge:
        Background-knowledge statements (data-distribution statements from
        :mod:`repro.knowledge.statements`, association rules converted via
        ``rule.to_statement()``, or individual statements from
        :mod:`repro.knowledge.individuals`).
    individuals:
        Build the person-level (pseudonym) variable space of Section 6.
        Automatically enabled when ``knowledge`` contains an individual
        statement.  A prebuilt group-level model cannot take either:
        that raises :class:`~repro.errors.KnowledgeError`.
    config:
        Solver configuration; defaults to decomposed, presolved L-BFGS.
    engine:
        The :class:`repro.engine.PrivacyEngine` to execute on.  Defaults
        to the process-wide shared engine for ``config``'s execution
        knobs; pass a dedicated engine to isolate its solve cache or to
        control worker-pool lifecycle.

    Example
    -------
    >>> engine = PrivacyMaxEnt(published, knowledge=bound.statements(rules))
    >>> posterior = engine.posterior()
    >>> posterior.prob(("female", "college"), "Breast Cancer")
    """

    def __init__(
        self,
        published: BucketizedTable | ReleaseModel,
        knowledge: Iterable = (),
        *,
        individuals: bool = False,
        config: MaxEntConfig | None = None,
        engine: PrivacyEngine | None = None,
    ) -> None:
        statements = list(knowledge)
        needs_people = individuals or any(
            isinstance(s, IndividualStatement) for s in statements
        )
        self._config = config or MaxEntConfig()
        self._engine = engine
        model = published
        with Timer() as build_timer:
            if not isinstance(model, ReleaseModel):
                model = ReleaseModel(published, individuals=needs_people)
            elif needs_people and model.pseudonyms is None:
                raise KnowledgeError(
                    "individual knowledge needs a person-level model: "
                    "ReleaseModel(published, individuals=True)"
                )
            self._system, self._n_knowledge_rows, _ = model.compile(statements)
        # Not the model: a model built here is dropped with its data rows,
        # which the system then holds alone.
        self._published = model.published
        self._space = model.space
        self._pseudonyms = model.pseudonyms
        self._solution: MaxEntSolution | None = None
        # What this constructor paid (the model build only when it built
        # the model), reported to the engine with the first solve.
        self._build_seconds = build_timer.seconds

    # -- introspection ------------------------------------------------------

    @property
    def published(self) -> BucketizedTable:
        """The release under analysis."""
        return self._published

    @property
    def space(self) -> GroupVariableSpace | PersonVariableSpace:
        """The variable space (group- or person-level)."""
        return self._space

    @property
    def pseudonyms(self) -> PseudonymTable | None:
        """The pseudonym table (person-level engines only)."""
        return self._pseudonyms

    @property
    def system(self) -> ConstraintSystem:
        """The full constraint system (data rows + knowledge rows)."""
        return self._system

    @property
    def n_knowledge_rows(self) -> int:
        """Number of compiled background-knowledge rows (both families)."""
        return self._n_knowledge_rows

    @property
    def engine(self) -> PrivacyEngine:
        """The execution engine solves run on."""
        return self._engine or shared_engine(self._config)

    # -- solving ---------------------------------------------------------------

    def solve(self, *, force: bool = False) -> MaxEntSolution:
        """Run (or return the cached) MaxEnt solve."""
        if self._solution is None or force:
            self._solution = self.engine.solve(
                self._space,
                self._system,
                self._config,
                build_seconds=self._build_seconds,
            )
            self._build_seconds = 0.0
        return self._solution

    def posterior(self) -> PosteriorTable:
        """The estimated ``P*(SA | QI)`` (group-level engines)."""
        solution = self.solve()
        if isinstance(self._space, PersonVariableSpace):
            raise ReproError(
                "this engine is person-level; use person_posterior() "
                "or read group posteriors from a group-level engine"
            )
        return PosteriorTable.from_solution(solution)

    def person_posterior(self) -> dict[str, dict[str, float]]:
        """``P*(s | pseudonym)`` (person-level engines, Section 6)."""
        solution = self.solve()
        if not isinstance(self._space, PersonVariableSpace):
            raise ReproError(
                "this engine is group-level; construct it with "
                "individuals=True for person posteriors"
            )
        return person_posterior(solution)


def baseline_posterior(published: BucketizedTable) -> PosteriorTable:
    """The no-knowledge posterior every prior metric uses (Eq. 9).

    Equivalent to ``PrivacyMaxEnt(published).posterior()`` but via the
    closed form — Theorem 5 guarantees they agree, and a property test
    holds us to that.
    """
    engine = PrivacyMaxEnt(published)
    return engine.posterior()


def assess(
    original: Table,
    published: BucketizedTable,
    bounds: Sequence[TopKBound],
    *,
    rules: RuleSet | None = None,
    mining: MiningConfig | None = None,
    config: MaxEntConfig | None = None,
    exclude_sa: frozenset[str] = frozenset(),
    engine: PrivacyEngine | None = None,
) -> list[PrivacyAssessment]:
    """Quantify privacy of ``published`` under each candidate bound.

    Mines rules from ``original`` (Section 4.2: the original data is the
    authoritative source of background knowledge) and builds the release
    model once, then for each bound selects the top rules, solves the
    MaxEnt program, and packages the (bound, score) tuple of Section 4.3.
    ``exclude_sa`` removes exempt (non-sensitive) SA values from the
    disclosure metrics, matching a footnote-3-style bucketization.

    All bounds run on one execution engine (``engine``, or the shared
    engine for ``config``), so components untouched by the growing
    knowledge sets are solved once and served from cache thereafter.
    """
    if rules is None:
        rules = mine_association_rules(original, mining)
    truth = PosteriorTable.from_table(original)
    execution = engine or shared_engine(config or MaxEntConfig())
    model = ReleaseModel(published)

    assessments = []
    for bound in bounds:
        quantifier = PrivacyMaxEnt(
            model,
            knowledge=bound.statements(rules),
            config=config,
            engine=execution,
        )
        assessments.append(
            score_posterior(
                bound,
                truth,
                quantifier.posterior(),
                n_constraints=quantifier.n_knowledge_rows,
                stats=quantifier.solve().stats,
                exclude_sa=exclude_sa,
            )
        )
    return assessments


def score_posterior(
    bound: TopKBound,
    truth: PosteriorTable,
    posterior: PosteriorTable,
    *,
    n_constraints: int,
    stats: SolverStats,
    exclude_sa: frozenset[str] = frozenset(),
) -> PrivacyAssessment:
    """Score one solved posterior: the Section 4.3 (bound, privacy) row.

    The one scoring step :func:`assess` and the service's ``/assess``
    endpoint share: the bound's description, the compiled knowledge-row
    count, the five privacy metrics of ``posterior`` against the ground
    truth ``truth`` (``exclude_sa`` leaves exempt SA values out of the
    disclosure metrics) and the solve's statistics.
    """
    return PrivacyAssessment(
        bound=bound.describe(),
        n_constraints=n_constraints,
        estimation_accuracy=estimation_accuracy(truth, posterior),
        max_disclosure=max_disclosure(posterior, exclude=exclude_sa),
        bayes_vulnerability=bayes_vulnerability(posterior, exclude=exclude_sa),
        effective_l=effective_l(posterior, exclude=exclude_sa),
        expected_entropy_bits=expected_posterior_entropy(posterior),
        stats=stats,
    )
