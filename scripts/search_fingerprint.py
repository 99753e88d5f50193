"""Fingerprint of the search tree and of the rewrite layer.

    python3 scripts/search_fingerprint.py CHECKOUT OUT_DIR

Runs every cell of the benchmark's ``refute`` and ``witness`` workloads
(seeds 1 and 2), the 72 curated cells of ``refute`` (12 ontologies or pairs
under 6 strategies) at bound 5 with a budget of ``CURATED_BUDGET``, and
1500 random ontologies (``find_model`` and ``check_entailment``) against
the library in ``CHECKOUT/src``, and writes
two files into ``OUT_DIR``. ``verdicts.jsonl`` holds one JSON line per call
with its verdicts and serialized witnesses, or the budget it ran out of.
``counts.jsonl`` holds one JSON line per call with the number of candidates
each of its search calls tried.

It then writes one line per rewrite: ``contextualize`` under every strategy
of each statement of the ``witness`` corpus (seeds 1 and 2, with that seed's
annotations), of each curated ontology and of ``EDGE_ONTOLOGY`` (both with
the running example's annotation), and ``combine_contexts`` of the first 1,
2, 4, ..., 64 statement/annotation pairs of each corpus. A line holds the
serialized output, the ``digest`` of its axioms and sorted signature,
which also pins the term kinds the text does not show, and the category and
message of each warning the rewrite raised (not where it was raised).

Last, it pins the text layer: for 3000 seeded documents (an ontology block
from ``tests/generators.random_document_ontology``, an annotation block and
a model block) one line holds the serialized text and the ``digest`` of
its parse, and for 3000 seeded mutations of those texts (a truncation or an
inserted token) one line holds the parse error, or the ``digest`` of
the parse when the mutation still parses. The lexer's edge cases get the
same two kinds of line for a variant of each of the first 500 documents
(a ``# comment`` line inserted, spaces turned into tabs or no-break spaces,
and for about half of them ``\\n`` line ends turned into ``\\r\\n``) and
for that variant with a token inserted; they are drawn from a generator of
their own, so the lines before them do not depend on them.

The rewrite and text lines go to ``verdicts.jsonl`` too.

Two checkouts whose ``verdicts.jsonl`` compare equal decide the same calls
with the same verdicts and witnesses, rewrite to the same ontologies, and
print and parse the same text on all of these inputs; whose
``counts.jsonl`` compare equal too walk the same search trees. A change
that prunes the search moves the counts and may decide more calls;
``compare_fingerprints.py`` checks that it changes no verdict or witness
where both sides decide and raises no count:

    python3 scripts/search_fingerprint.py ../parent old
    python3 scripts/search_fingerprint.py . new
    python3 scripts/compare_fingerprints.py old new
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import tempfile
import warnings
from pathlib import Path

# Rewrite edge cases the corpora do not reach: a context top of a foreign
# context in a TBox axiom and in an assertion, a punned term, a role that is
# also its own subject, a two-member nominal, and a non-atomic role assertion.
EDGE_ONTOLOGY = """ontology edge {
  ctxtop[X] sub C .
  and(C, ctxtop[X])(a) .
  t(t) .
  r(r, a) .
  exists(r, oneof(a, t))(b) .
  inv(r)(a, t) .
}
"""

# The curated cells at bound 5 decide within about 77k candidates at most.
CURATED_BUDGET = 3_000_000


def digest(value: object) -> str:
    """Sixteen hex digits of the SHA-256 of `value`'s ``repr``: the library's
    ``core.stable_hash`` widened, to make a collision between the pinned
    structures unlikely. Like it, deterministic only for values with no set
    inside."""
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()[:16]


def main(checkout: Path, out_dir: Path) -> None:
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench"), str(checkout / "tests")]
    warnings.simplefilter("ignore")
    import workloads

    mods = workloads.load_modules()
    from generators import (  # imports the ctxdl just loaded
        random_axiom, random_document_ontology, random_interpretation, term_pool)
    search, sem, textio = mods.search, mods.semantics, mods.textio

    budgets = []

    class RecordingBudget(search._Budget):
        def __init__(self, limit):
            super().__init__(limit)
            budgets.append(self)

    search._Budget = RecordingBudget

    def verdict(v):
        if v is None:
            return None
        model = getattr(v, "model", None) or getattr(v, "countermodel", None)
        return [type(v).__name__, getattr(v, "size", None), getattr(v, "bound", None),
                textio.serialize(model, "witness") if model is not None else None]

    out_dir.mkdir(parents=True, exist_ok=True)
    with (out_dir / "verdicts.jsonl").open("w", encoding="utf-8") as out, \
            (out_dir / "counts.jsonl").open("w", encoding="utf-8") as counts:

        def emit(call_id, fn):
            budgets.clear()
            record = {"id": call_id}
            try:
                result = fn()
            except sem.BoundTooLargeError as exc:
                record["budget_out"] = exc.budget
            else:
                if hasattr(result, "premise_verdicts"):
                    record["outcome"] = result.outcome.value
                    record["premises"] = [verdict(v) for v in result.premise_verdicts]
                    record["conclusion"] = verdict(result.conclusion_verdict)
                else:
                    record["verdict"] = verdict(result)
            out.write(json.dumps(record, sort_keys=True) + "\n")
            counts.write(json.dumps({"id": call_id, "ticks": [b.used for b in budgets]}) + "\n")

        for workload in ("refute", "witness"):
            for seed in (1, 2):
                with tempfile.TemporaryDirectory() as work:
                    built = workloads.build(workload, mods, seed, Path(work))
                    for cell in sorted(built.cells, key=lambda c: c.id):
                        emit(f"{workload}/{seed}/{cell.id}", cell.run)

        verify, strategy_enum = mods.verify, mods.strategies.Strategy
        ca = workloads.running_example_annotation(mods)
        for name, onto in verify.curated_inconsistent_ontologies():
            for strategy in strategy_enum:
                emit(f"curated/b5/inc/{name}/{strategy.value}", lambda: verify.check_inconsistency_preservation(
                    strategy, onto, ca, 5, budget=CURATED_BUDGET))
        for name, premise, conclusion in verify.curated_entailment_pairs():
            for strategy in strategy_enum:
                emit(f"curated/b5/ent/{name}/{strategy.value}", lambda: verify.check_entailment_preservation(
                    strategy, premise, conclusion, ca, 5, budget=CURATED_BUDGET))

        ontology_of = mods.core.Ontology
        rng = random.Random(99)
        for i in range(1500):
            terms = term_pool(rng.randint(1, 3))
            o1 = ontology_of([random_axiom(rng, terms, rng.randint(0, 2)) for _ in range(rng.randint(1, 4))])
            o2 = ontology_of([random_axiom(rng, terms, rng.randint(0, 2)) for _ in range(rng.randint(1, 2))])
            emit(f"random/{i}/model", lambda: search.find_model(o1, 3, budget=3000))
            emit(f"random/{i}/entailment", lambda: search.check_entailment(o1, o2, 3, budget=3000))

        strategies, annotation = mods.strategies, mods.annotation

        def emit_rewrite(call_id, fn):
            record = {"id": call_id}
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    onto = fn()
                except Exception as exc:  # a rejected input is part of the fingerprint
                    record["error"] = type(exc).__name__
                else:
                    record["text"] = textio.serialize(onto, "out")
                    record["structure"] = digest((onto.axioms, tuple(onto.sorted_signature())))
            record["warnings"] = [f"{w.category.__name__}: {w.message}" for w in caught]
            out.write(json.dumps(record, sort_keys=True) + "\n")

        def rewrite_all(prefix, pairs):
            for index, (onto, ca) in enumerate(pairs):
                for strategy in strategies.Strategy:
                    emit_rewrite(f"{prefix}/{index:03d}/{strategy.value}", lambda: strategies.contextualize(
                        strategy, annotation.AnnotatedOntology(onto, ca)))

        corpus = workloads.WITNESS_CORPUS
        statements = [onto for onto, _ in mods.verify.generate_corpus(**corpus)]
        for seed in (1, 2):
            # The annotations the witness workload draws for this seed.
            drawn = mods.verify.generate_corpus(random.Random(seed).randrange(2**32), corpus["count"],
                                                corpus["max_terms"], corpus["max_axioms"])
            pairs = list(zip(statements, [ca for _, ca in drawn]))
            rewrite_all(f"contextualize/witness/{seed}", pairs)
            for strategy in strategies.Strategy:
                k = 1
                while k <= 64:
                    emit_rewrite(f"combine/witness/{seed}/{strategy.value}/k{k}", lambda: strategies.combine_contexts(
                        [annotation.AnnotatedOntology(onto, ca) for onto, ca in pairs[:k]], strategy))
                    k *= 2

        curated = [onto for _, onto in mods.verify.curated_inconsistent_ontologies()]
        for _, premise, conclusion in mods.verify.curated_entailment_pairs():
            curated += [premise, conclusion]
        rewrite_all("contextualize/curated", [(onto, ca) for onto in curated])
        rewrite_all("contextualize/edge", [(textio.parse(EDGE_ONTOLOGY).ontologies()[0], ca)])

        core = mods.core

        def canonical(doc):
            """The parse as plain data in a hash-seed-independent order."""
            out = []
            for block in doc.blocks:
                value = block.payload
                if isinstance(value, core.Ontology):
                    value = (value.axioms, tuple(value.sorted_signature()))
                elif isinstance(value, annotation.ContextualAnnotation):
                    value = (value.anchor, value.abox, value.ctx_id, sorted(value.sigma, key=core.Term.sort_key))
                else:
                    value = (value.size, *(
                        [(t, sorted(table[t]) if aspect != "indiv" else table[t])
                         for t in sorted(table, key=core.Term.sort_key)]
                        for aspect, table in (("indiv", value.indiv), ("conc", value.conc), ("role", value.role))
                    ), sorted((cid, sorted(s)) for cid, s in value.top_ctx.items()))
                out.append((block.kind.value, block.name, block.span, value))
            return digest(out)

        def emit_text(call_id, text):
            record = {"id": call_id}
            try:
                record["parse"] = canonical(textio.parse(text))
            except Exception as exc:  # the error message is part of the fingerprint
                record["error"] = f"{type(exc).__name__}: {exc}"
            out.write(json.dumps(record, sort_keys=True) + "\n")

        rng = random.Random(20251018)
        texts = []
        for i in range(3000):
            anchor = core.Term.nc(f"a{i}")
            abox = [core.RoleAssert(core.RoleAtom(core.Term.nc(f"r{i}")), anchor, core.Term.nc(f"v{i}"))]
            blocks = [
                textio.Block(textio.BlockKind.ONTOLOGY, f"o{i}", random_document_ontology(rng, i)),
                textio.Block(textio.BlockKind.ANNOTATION, f"ctx{i}",
                             annotation.validate_annotation(anchor, abox, ctx_id=f"ctx{i}")),
                textio.Block(textio.BlockKind.MODEL, f"m{i}", random_interpretation(
                    rng, term_pool(rng.randint(1, 3), prefix=f"m{i}x"), rng.randint(1, 3))),
            ]
            text = textio.serialize(textio.SourceDocument(tuple(rng.sample(blocks, rng.randint(1, 3)))))
            texts.append(text)
            out.write(json.dumps({"id": f"text/{i}", "text": text}, sort_keys=True) + "\n")
            emit_text(f"text/{i}/parse", text)
        tokens = ["(", ")", ",", ".", "{", "}", "[", "]", "=", "-", "x", "7", "top", "and", "atmost", "inv",
                  "product", "oneof", "ctxtop", "sub", "rsub", "model", "domain", "role"]
        for i in range(3000):
            text = rng.choice(texts)
            cut = rng.randrange(len(text))
            if rng.random() < 0.3:
                mutated = text[:cut]
            else:
                mutated = f"{text[:cut]} {rng.choice(tokens)} {text[cut:]}"
            emit_text(f"mutation/{i}", mutated)
        # The lexer's edge cases, from a generator of their own so that every
        # line above stays as it was: each of the first 500 documents with a
        # comment line inserted, its spaces turned into tabs or no-break
        # spaces and, for some, its line ends into CRLF; then that variant
        # with a token inserted, as the mutations do.
        rng = random.Random(20261018)
        for i, text in enumerate(texts[:500]):
            lines = text.split("\n")
            lines.insert(rng.randrange(len(lines) + 1), "# comment")
            variant = "\n".join(lines).replace(" ", rng.choice(["\t", "\u00a0"]))
            if rng.random() < 0.5:
                variant = variant.replace("\n", "\r\n")
            emit_text(f"variant/{i}", variant)
            cut = rng.randrange(len(variant))
            emit_text(f"variant/{i}/mutation", f"{variant[:cut]}\t{rng.choice(tokens)}\u00a0{variant[cut:]}")


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    main(Path(sys.argv[1]).resolve(), Path(sys.argv[2]))
