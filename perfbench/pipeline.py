"""The work one op does in each workload, and the check of its results.

Ops reach the program only through `wondersys.<name>` at call time, so the
tracer's wrappers see them.  Checks compare semantic fields only (the ok
flag, axiom ids, indices, conditions and verdicts), never message text.
"""
from __future__ import annotations

import json
from typing import Optional

import wondersys as ws

from corpus import Case, CliCase, Shape

POSITIVE_ROOTS = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
    "F": lambda n: 24,
    "G": lambda n: 6,
}


def positive_root_count(shape: Shape) -> int:
    return sum(POSITIVE_ROOTS[series](rank) for series, rank in shape)


def batch_op(case: Case, orbits: bool, roots: bool) -> tuple:
    """loads -> validate -> distinguished -> critical -> [orbits + DOT] -> dumps [-> positive roots].

    An invalid system stops after validation.
    """
    system = ws.loads(case.text)
    report = ws.validate_system(system)
    if not report.ok:
        return system, report, None, None, None, None, None
    rigidity = ws.distinguished_elements(system)
    criticality = ws.critical_roots(system)
    dot = ws.emit_graph(ws.orbit_poset(system)) if orbits else None
    text = ws.dumps(system)
    proots = ws.positive_roots(system.rs) if roots else None
    return system, report, rigidity, criticality, dot, text, proots


def check_dot(dot: str, r: int) -> Optional[str]:
    nodes = sum("[boundary_rank=" in line for line in dot.splitlines())
    edges = sum(" -> " in line for line in dot.splitlines())
    if (nodes, edges) != (2 ** r, r * 2 ** (r - 1) if r else 0):
        return f"DOT has {nodes} nodes and {edges} edges for rank {r}"
    return None


def check_batch(case: Case, result: tuple) -> Optional[str]:
    """Why the op's results differ from the case's expectations, or None."""
    system, report, rigidity, criticality, dot, text, proots = result
    if report.ok != case.valid or report.axiom_ids() != case.axioms:
        return f"axioms {sorted(report.axiom_ids())}, expected {sorted(case.axioms)}"
    if not case.valid:
        return None
    got = sorted((system.psi_index(w.root), w.condition) for w in rigidity.distinguished)
    if got != sorted(case.distinguished):
        return f"distinguished {got}, expected {sorted(case.distinguished)}"
    marked = {i for i, _ in case.distinguished}
    verdicts = [(e.critical, e.vacuous) for e in criticality.entries]
    if verdicts != list(case.critical) or [e.distinguished for e in criticality.entries] != [
        i in marked for i in range(case.n_psi)
    ]:
        return f"criticality {verdicts}, expected {list(case.critical)}"
    if ws.loads(text) != system:
        return "loads(dumps(s)) != s"
    if dot is not None:
        bad = check_dot(dot, case.n_psi)
        if bad:
            return bad
    if proots is not None and len(proots) != positive_root_count(case.shape):
        return f"|positive roots| = {len(proots)}, expected {positive_root_count(case.shape)}"
    return None


def cli_args(op: CliCase, doc_path: str, dot_path: str) -> list:
    args = ["--format", "json"] if op.json else []
    args += [op.verb, op.source or doc_path]
    if op.verb == "orbits":
        args += ["--dot", dot_path]
    return args


def check_cli(op: CliCase, code: int, stdout: str, dot: Optional[str]) -> Optional[str]:
    """Why a CLI invocation's exit code or output is wrong, or None."""
    if code != op.exit_code:
        return f"exit code {code}, expected {op.exit_code}"
    exp = op.expect
    if op.verb == "orbits":
        if dot is None:
            return "no DOT output"
        bad = check_dot(dot, exp.n_psi)
        if bad:
            return bad
    if not op.json:
        first = stdout.splitlines()[0] if stdout.strip() else ""
        if op.verb == "validate" and code in (0, 1):
            return None if first == ("ok" if code == 0 else "invalid") else f"first line {first!r}"
        if op.verb == "rigidity":
            rigid = "true" if not exp.distinguished else "false"
            return None if first == f"rigid: {rigid}" else f"first line {first!r}"
        return None
    try:
        env = json.loads(stdout)
    except json.JSONDecodeError:
        return "stdout is not JSON"
    if not isinstance(env, dict):
        return "JSON envelope is not an object"
    if code == 2 or (code == 1 and op.verb != "validate"):
        ok = env.get("ok") is False and isinstance(env.get("error"), str)
        return None if ok else f"error envelope {sorted(env)}"
    if env.get("command") != op.verb or env.get("ok") is not (code == 0):
        return f"envelope command/ok {env.get('command')!r}/{env.get('ok')!r}"
    try:
        if op.verb == "validate":
            axioms = {v["axiom"] for v in env["violations"]}
            return None if axioms == exp.axioms else f"axioms {sorted(axioms)}"
        if op.verb == "rigidity":
            got = sorted((d["index"], d["condition"]) for d in env["distinguished"])
            ok = got == sorted(exp.distinguished) and env["rigid"] is (not got)
            return None if ok else f"distinguished {got}"
        if op.verb == "critical":
            marked = {i for i, _ in exp.distinguished}
            got = [(e["index"], e["distinguished"], e["critical"], e["vacuous"])
                   for e in env["entries"]]
            want = [(i, i in marked, c, v) for i, (c, v) in enumerate(exp.critical)]
            return None if got == want else f"entries {got}"
        r = exp.n_psi
        if (env["rank"], env["nodes"], env["edges"]) != (r, 2 ** r, r * 2 ** (r - 1)):
            return f"orbits {env['rank']}/{env['nodes']}/{env['edges']}"
        return None
    except (KeyError, TypeError) as exc:
        return f"missing field {exc}"
