"""Smoke mode: one short pass per workload, then the comparators on perturbed
copies of its outputs.

Every real output must be accepted and every perturbed one rejected; the exit
code is 0 only then.  The check passes run 3 trials per check instead of 200,
and the dsl pass leaves out its depth-3 expression, so the whole mode takes a
few seconds.  Run it as `python3 benchmarks/run.py --smoke`.
"""

from __future__ import annotations

import copy
import json
import math

import runner
import verify

TRIALS = 3
SEED = 0


def _edit_report(outputs, n, k, **changes):
    """A copy of the pass outputs with report k of pass n changed."""
    out = copy.deepcopy(outputs)
    code, text = out[n][k]
    rep = json.loads(text)
    rep.update(changes)
    out[n][k] = (code, json.dumps(rep))
    return out


def main() -> int:
    results = []

    def expect(label: str, problems: list[str], reject: bool) -> None:
        ok = bool(problems) == reject
        results.append(ok)
        verdict = "rejected" if problems else "accepted"
        print(f"{'ok  ' if ok else 'FAIL'} {label}: {verdict}"
              + (f" ({problems[0]})" if problems else ""))

    for workload in ("fd-checks", "exact-checks"):
        one = runner.CheckPass(workload, SEED, trials=TRIALS)
        outputs = [one.run(), one.run()]
        _, problems = verify.check_reports(one.ops, outputs, TRIALS)
        expect(f"{workload} reports", problems, reject=False)
        rep = json.loads(outputs[1][0][1])
        for label, change in (
                ("residual changed between passes",
                 {"max_abs_err": rep["max_abs_err"] * (1 + 1e-12) + 1e-300}),
                ("worst trial changed between passes",
                 {"worst_trial": (rep["worst_trial"] + 1) % TRIALS}),
                ("verdict contradicting the residual",
                 {"pass": not rep["pass"]})):
            _, problems = verify.check_reports(
                one.ops, _edit_report(outputs, 1, 0, **change), TRIALS)
            expect(f"{workload} {label}", problems, reject=True)

    mc = runner.probe_mc("fd-checks", SEED, 1e-5)
    expect("d w against -[w, w]", verify.mc_probes(mc, 1e-5), reject=False)
    (ab, point, value), *rest = mc
    expect("d w off by 1e-6",
           verify.mc_probes([(ab, point, value + 1e-6)] + rest, 1e-5),
           reject=True)

    cochains = runner.probe_cochains("exact-checks", SEED)
    expect("cochains against Levi-Civita", verify.cochain_probes(cochains),
           reject=False)
    name, point, value = cochains[0]
    expect("cochain off by 1e-10",
           verify.cochain_probes([(name, point, value + 1e-10)]), reject=True)

    golden = runner.probe_golden()
    expect("golden values", verify.golden_probes(golden), reject=False)
    expect("golden mu off by 1e-11",
           verify.golden_probes(dict(golden, mu=golden["mu"] + 1e-11)),
           reject=True)

    one = runner.DslPass(SEED)
    keep = [k for k, e in enumerate(one.exprs)
            if not e.name.endswith("depth3")]
    one.exprs = [one.exprs[k] for k in keep]
    one.points = [one.points[k] for k in keep]
    one.ops = [one.ops[k] for k in keep]
    outputs = [one.run()]
    _, problems = verify.dsl_values(one.exprs, outputs)
    expect("dsl values against the term lists", problems, reject=False)
    code, values = outputs[0][-1]
    bad = copy.deepcopy(outputs)
    bad[0][-1] = (code, [values[0] * (1 + 1e-9) + 1e-12] + values[1:])
    _, problems = verify.dsl_values(one.exprs, bad)
    expect("dsl value off by 1e-9 relative", problems, reject=True)
    bad = [copy.deepcopy(outputs[0]), copy.deepcopy(bad[0])]
    bad[1][-1] = (code, [math.nextafter(values[0], math.inf)] + values[1:])
    _, problems = verify.dsl_values(one.exprs, bad)
    expect("dsl value changed between passes", problems, reject=True)

    print(f"smoke: {sum(results)}/{len(results)} as expected")
    return 0 if all(results) else 1
