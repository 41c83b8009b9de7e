"""Self-checks of the benchmark's corpus and checks.

    PYTHONPATH=src python3 -m pytest perfbench -q

The composition rule that gives every sum its expected criticality is
re-checked against the brute-force oracle on small sums, including sums
with flags on D, E and F components.
"""
from __future__ import annotations

import json
import random
from pathlib import Path

import wondersys as ws

import corpus
import pipeline
import tracing

ROOT = Path(__file__).resolve().parent.parent


def _verdicts(system):
    crit = ws.critical_roots_oracle(system)
    dist = sorted((system.psi_index(w.root), w.condition)
                  for w in ws.distinguished_elements(system).distinguished)
    return dist, [(e.critical, e.vacuous) for e in crit.entries]


def _oracle_cases():
    rng = random.Random(11)
    cases = [c for c in corpus.batch_small(11, count=150) if c.valid]
    pool = [p for p in corpus._small_pool(corpus.catalog_parts()) if p.rank <= 4]
    for series, rank in (("D", 5), ("E", 7), ("F", 4), ("B", 5), ("E", 6)):
        for _ in range(6):
            parts = [corpus.flag(series, rank, rng.sample(range(1, rank + 1), rng.randint(0, 2)))]
            while True:
                part = rng.choice(pool)
                if sum(p.rank for p in parts) + part.rank > 10:
                    break
                parts.append(part)
            rng.shuffle(parts)
            cases.append(corpus.compose(parts))
    return cases


def test_composition_rule_matches_oracle():
    cases = _oracle_cases()
    assert any(c.critical and not all(v for _, v in c.critical) for c in cases)
    for case in cases:
        system = ws.loads(case.text)
        assert ws.validate_system(system).ok, case.text
        dist, verdicts = _verdicts(system)
        assert dist == sorted(case.distinguished), case.text
        assert verdicts == list(case.critical), case.text


def test_mutants_fail_exactly_their_axioms():
    mutants = [c for c in corpus.batch_small(3, count=300) if not c.valid]
    assert len(mutants) == 60
    assert {a for c in mutants for a in c.axioms} == {"P1", "BASE"}
    for case in mutants:
        assert ws.validate_system(ws.loads(case.text)).axiom_ids() == case.axioms, case.text


def test_same_seed_same_corpus():
    assert corpus.batch_small(5, count=50) == corpus.batch_small(5, count=50)
    assert corpus.cli_mix(5) == corpus.cli_mix(5)
    assert corpus.wide_sums(5) != corpus.wide_sums(6)


def test_wide_sums_shape():
    for case in corpus.wide_sums(2):
        assert 24 <= case.rank <= 48 and 8 <= case.n_psi <= 21
        assert all(r <= 3 for _, r in case.shape)


def test_checks_pass_on_the_program_and_catch_a_wrong_expectation():
    cheap = sorted(corpus.big_components(4), key=lambda c: c.rank)[:6]
    for case in cheap + corpus.batch_small(4, count=40):
        result = pipeline.batch_op(case, orbits=True, roots=True)
        assert pipeline.check_batch(case, result) is None
    case = next(c for c in cheap if c.critical)
    wrong = corpus.Case(case.text, case.shape, case.n_psi, case.axioms, case.distinguished,
                        tuple((not c, v) for c, v in case.critical))
    assert pipeline.check_batch(wrong, pipeline.batch_op(wrong, True, True)) is not None


def test_cli_mix_covers_every_exit_code():
    ops = corpus.cli_mix(1)
    assert {op.exit_code for op in ops} == {0, 1, 2}
    assert sum(op.verb == "orbits" for op in ops) / len(ops) > 0.1


def test_benchmark_json_names_the_traced_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer"]}
    traced = {f"{span}.{kind}" for span in tracing.SPANS for kind in ("calls", "self_ms")}
    traced |= set(tracing.COUNTER_NAMES)
    traced |= {"rigidity.localizations", "rigidity.localizations_per_root",
               "trace.overhead_ratio", "cli.import_ms", "cli.interpreter_ms"}
    assert names == traced
