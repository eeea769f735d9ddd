"""``run.py compare A.json B.json``: B against base A, by BENCHMARK.json's bounds.

One row per (workload, end-to-end metric) with both medians, quartiles and
the ratio B/A.  A metric whose inter-quartile spread on either side exceeds
its bound is ``unresolved`` rather than ``unchanged`` — unless every sample
of B reads better than every sample of A.  Exact-repeat counts and the
simulated values of every operation are compared with ``==`` and reported;
they fail nothing here (a change may rightly move a count, and a simulated
value that moved at the default seed already shows as a failed operation).
Any ``regression``, or a larger ``failed_frac``, exits non-zero.
"""

from __future__ import annotations

from typing import Any


def _spread(m: dict[str, Any]) -> float:
    return (m["q3"] - m["q1"]) / m["median"] if m["median"] else 0.0


def _cell(m: dict[str, Any]) -> str:
    return f"{m['median']:.5g} [{m['q1']:.5g}, {m['q3']:.5g}] n={m['n']}"


def _verdict(a: dict[str, Any], b: dict[str, Any], lower_better: bool,
             bound: float) -> str:
    sign = 1.0 if lower_better else -1.0
    worse_by = sign * (b["median"] - a["median"]) / a["median"]
    if worse_by > bound:
        return "regression"
    if max(_spread(a), _spread(b)) > bound:
        b_all_better = (max(b["values"]) < min(a["values"]) if lower_better
                        else min(b["values"]) > max(a["values"]))
        return "better" if b_all_better else "unresolved"
    return "better" if -worse_by > bound else "unchanged"


def compare(a_doc: dict[str, Any], b_doc: dict[str, Any],
            spec: dict[str, Any]) -> tuple[list[str], bool]:
    """Report lines and whether B passes."""
    lines = [f"{'workload':20s} {'metric':14s} {'A median [q1, q3]':>34s} "
             f"{'B median [q1, q3]':>34s} {'B/A':>8s}  verdict (bound, base A)"]
    ok = True
    same = differ = 0
    for name in a_doc["workloads"]:
        if name not in b_doc["workloads"]:
            lines.append(f"{name:20s} only in A — not compared")
            continue
        a, b = a_doc["workloads"][name], b_doc["workloads"][name]
        for metric in spec["end_to_end"]:
            ma = a["end_to_end"][metric["name"]]
            mb = b["end_to_end"][metric["name"]]
            verdict = _verdict(ma, mb, metric["better"] == "lower", metric["bound"])
            ok &= verdict != "regression"
            lines.append(
                f"{name:20s} {metric['name']:14s} {_cell(ma):>34s} {_cell(mb):>34s} "
                f"{mb['median'] / ma['median']:8.4f}  {verdict} "
                f"({metric['bound']:.0%} of {ma['median']:.5g} {metric['unit']})")
        fa, fb = a["failed_frac"], b["failed_frac"]
        verdict = "regression" if fb > fa else "unchanged"
        ok &= fb <= fa
        lines.append(
            f"{name:20s} {'failed_frac':14s} {fa:>34.6g} {fb:>34.6g} {'':8s}  "
            f"{verdict} ({a['failed']}/{a['attempted']} -> "
            f"{b['failed']}/{b['attempted']})")
        exact_a = {**a["counts"], **{f"sim[{k}]": v for k, v in a["ops"].items()}}
        exact_b = {**b["counts"], **{f"sim[{k}]": v for k, v in b["ops"].items()}}
        for key, va in exact_a.items():
            vb = exact_b.get(key)
            if va == vb:
                same += 1
            else:
                differ += 1
                lines.append(f"{name:20s} {key:34s} {va!r} != {vb!r}  differs")
    lines.append(f"exact-repeat counts and simulated values: {same} same, {differ} differ")
    lines.append("PASS" if ok else "FAIL: regression beyond bound or more failed operations")
    return lines, ok
