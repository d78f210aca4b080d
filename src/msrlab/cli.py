"""Command-line front end for the whole laboratory.

Subcommands: construct a tensor-product family, verify one, check its
size bound, trace invariant decay to CSV, sweep an (r, m) grid, drive
the EVENODD example, check or extract repair schemes, print the cutset
bound, and run the deterministic selftest oracles.

Exit status is 0 on success, 1 when a checked property fails (a JSON
report with the offending instance and a replay hint goes to stdout),
and 2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import random
import sys
from fractions import Fraction
from typing import Sequence

from .errors import BadParams, CeilingExceeded, LemmaViolation, MsrLabError
from .field import FieldSpec
from .invariant import MapConstraint, decay_trace, invariant_dim
from .matrix import Matrix
from .msr_family import (
    MsrSubspaceFamily,
    compare_to_log_multiple,
    construct_tensor_family,
)
from .repair import (
    VectorCodeSystematic,
    check_msr_scheme,
    cutset_bound,
    evenodd_code,
    evenodd_repair,
    extract_family,
    random_constant_instance,
    repair_node,
    scheme_from_json_dict,
)
from .subspace import Subspace, intersect_all

DEFAULT_CEILING = 81
DECAY_HEADER = ("t", "invariant_dim", "bound_numerator", "bound_denominator", "pass")
SWEEP_HEADER = (
    "r",
    "m",
    "ell",
    "k_construct",
    "bound_approx",
    "gap_ratio_approx",
    "verified",
    "within_bound",
    "ratio_ge_quarter",
)


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def _fail(report: dict) -> int:
    """Print a machine-readable failure report and return exit status 1."""
    print(json.dumps(report, indent=2))
    return 1


def _load_family(path: str) -> MsrSubspaceFamily:
    return MsrSubspaceFamily.from_json_dict(_load_json(path))


def _parse_int_list(text: str) -> list[int]:
    stripped = text.strip()
    if not stripped:
        return []
    try:
        return [int(part) for part in stripped.split(",")]
    except ValueError as exc:
        raise BadParams(f"expected comma-separated integers, got {text!r}") from exc


def _write_csv(path: str | None, header: Sequence, rows: Sequence[Sequence]) -> None:
    """Emit rows as CSV to path, or as an aligned table to stdout."""
    if path is not None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(",".join(str(cell) for cell in header) + "\n")
            for row in rows:
                handle.write(",".join(str(cell) for cell in row) + "\n")
        print(f"wrote {path} ({len(rows)} rows)")
        return
    widths = [
        max(len(str(header[i])), max((len(str(row[i])) for row in rows), default=0))
        for i in range(len(header))
    ]
    print("  ".join(str(cell).ljust(w) for cell, w in zip(header, widths)).rstrip())
    for row in rows:
        print("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)).rstrip())


# ----------------------------------------------------------------------
# subcommands

def cmd_construct(args: argparse.Namespace) -> int:
    ell = args.r ** args.m
    if ell > args.ceiling:
        raise CeilingExceeded(
            f"ell = {args.r}**{args.m} = {ell} exceeds ceiling {args.ceiling}"
        )
    spec = FieldSpec(args.p)
    family = construct_tensor_family(args.r, args.m, spec, args.lam)
    _write_json(args.out, family.to_json_dict())
    print(
        f"constructed family over GF({spec.p}): "
        f"ell={family.ell} r={family.r} k={family.k}"
    )
    print(f"wrote {args.out}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    family = _load_family(args.infile)
    report = family.verify()
    for line in report.summary_lines():
        print(line)
    if report.ok:
        return 0
    return _fail(
        {
            "failure": "verify",
            "report": report.to_json_dict(),
            "family": family.to_json_dict(),
            "replay": f"msrlab verify --in {args.infile}",
        }
    )


def cmd_bound(args: argparse.Namespace) -> int:
    family = _load_family(args.infile)
    report = family.bound_check()
    print(f"k = {report.k}, ell = {report.ell}, r = {report.r}")
    print(f"4 * r * ln(ell) ~= {report.bound_approx:.6f}")
    print(f"within bound: {report.within_bound}")
    if report.within_bound:
        return 0
    return _fail(
        {
            "failure": "bound",
            "report": report.to_json_dict(),
            "family": family.to_json_dict(),
            "replay": f"msrlab bound --in {args.infile}",
        }
    )


def cmd_decay(args: argparse.Namespace) -> int:
    family = _load_family(args.infile)
    if args.order == "identity":
        order = None
    elif args.order.startswith("random:"):
        seed = int(args.order.split(":", 1)[1])
        order = list(range(family.k))
        random.Random(seed).shuffle(order)
    else:
        raise BadParams(f"--order must be 'identity' or 'random:<seed>', got {args.order!r}")
    # decay_trace raises LemmaViolation (exit 1, handled in main) on failure
    trace = decay_trace(family, order)
    _write_csv(args.out, DECAY_HEADER, trace.csv_rows())
    print(f"decay holds along order {list(trace.order)}: final dim {trace.dims[-1]}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    r_values = _parse_int_list(args.r_list)
    m_values = _parse_int_list(args.m_list)
    spec = FieldSpec(args.p)
    rows = []
    bad = None
    for r in r_values:
        for m in m_values:
            ell = r ** m
            if ell > args.ceiling:
                raise CeilingExceeded(
                    f"grid entry r={r}, m={m} gives ell={ell} > ceiling {args.ceiling}"
                )
            family = construct_tensor_family(r, m, spec, args.lam)
            verified = family.verify().ok
            bound = family.bound_check()
            # certified comparisons; the floats in the row are display only
            ratio_ge_quarter = compare_to_log_multiple(family.k, Fraction(r), ell) > 0
            rows.append(
                (
                    r,
                    m,
                    ell,
                    family.k,
                    f"{bound.bound_approx:.4f}",
                    f"{family.k / (4 * r * math.log(ell)):.4f}",
                    verified,
                    bound.within_bound,
                    ratio_ge_quarter,
                )
            )
            if bad is None and not (verified and bound.within_bound and ratio_ge_quarter):
                bad = (rows[-1], family)
    _write_csv(args.out, SWEEP_HEADER, rows)
    if bad is None:
        return 0
    row, family = bad
    return _fail(
        {
            "failure": "sweep",
            "row": {name: str(cell) for name, cell in zip(SWEEP_HEADER, row)},
            "family": family.to_json_dict(),
            "replay": f"msrlab sweep --r-list {row[0]} --m-list {row[1]} --p {args.p}",
        }
    )


def cmd_evenodd(args: argparse.Namespace) -> int:
    code = evenodd_code()
    nodes = range(4) if args.repair is None else (args.repair,)
    checked = 0
    for bits in itertools.product(range(2), repeat=4):
        data = [bits[:2], bits[2:]]
        blocks = code.encode(data)
        for node in nodes:
            result = evenodd_repair(blocks, node)
            if result.block != blocks[node] or result.bandwidth.total != 3:
                return _fail(
                    {
                        "failure": "evenodd-repair",
                        "data": [list(word) for word in data],
                        "node": node,
                        "recovered": result.block.to_json_dict(),
                        "expected": blocks[node].to_json_dict(),
                        "bandwidth": result.bandwidth.to_json_dict(),
                        "replay": f"msrlab evenodd --repair {node}",
                    }
                )
            checked += 1
    print(f"exhaustive check: {checked} repairs exact, 3 symbols each")
    # sample transmissions for the data word a=(1,0), b=(1,1)
    blocks = code.encode([(1, 0), (1, 1)])
    for node in nodes:
        result = evenodd_repair(blocks, node)
        sent = ", ".join(
            f"node {helper} sends {list(column.column_values())}"
            for helper, column in result.transmissions
        )
        print(f"repair node {node}: {sent}")
    return 0


def cmd_repair_check(args: argparse.Namespace) -> int:
    code = VectorCodeSystematic.from_json_dict(_load_json(args.code))
    scheme = scheme_from_json_dict(_load_json(args.scheme))
    nodes = range(code.k) if args.node is None else (args.node,)
    reports = [check_msr_scheme(code, scheme, m) for m in nodes]
    for report in reports:
        print(
            f"node {report.node}: regeneration "
            f"{'ok' if report.regeneration_ok else 'FAIL'}, interference "
            f"{'ok' if all(good for _, good in report.interference_ok) else 'FAIL'}"
        )
    if all(report.ok for report in reports):
        print("SCHEME PASS")
        return 0
    return _fail(
        {
            "failure": "repair-check",
            "reports": [report.to_json_dict() for report in reports],
            "code": code.to_json_dict(),
            "scheme": scheme.to_json_dict(),
            "replay": f"msrlab repair-check --code {args.code} --scheme {args.scheme}",
        }
    )


def cmd_extract(args: argparse.Namespace) -> int:
    code = VectorCodeSystematic.from_json_dict(_load_json(args.code))
    scheme = scheme_from_json_dict(_load_json(args.scheme))
    family = extract_family(code, scheme)
    report = family.verify()
    for line in report.summary_lines():
        print(line)
    if args.out is not None:
        _write_json(args.out, family.to_json_dict())
        print(f"wrote {args.out}")
    if report.ok:
        return 0
    return _fail(
        {
            "failure": "extract",
            "report": report.to_json_dict(),
            "family": family.to_json_dict(),
            "replay": f"msrlab extract --code {args.code} --scheme {args.scheme}",
        }
    )


def cmd_cutset(args: argparse.Namespace) -> int:
    value = cutset_bound(args.n, args.k, args.ell)
    print(f"cutset bound: {value.numerator}/{value.denominator}")
    print(f"decimal: {float(value):.6f}")
    return 0


# ----------------------------------------------------------------------
# selftest oracles
#
# Each oracle checks library results against an independent brute-force
# computation. All randomness flows from the single seeded generator and
# nothing timing-dependent is printed, so reruns with the same seed are
# byte-identical.

def _random_matrix(spec: FieldSpec, rows: int, cols: int, rng: random.Random) -> Matrix:
    if rows == 0:
        return Matrix.zeros(spec, 0, cols)
    return Matrix(spec, [[rng.randrange(spec.p) for _ in range(cols)] for _ in range(rows)])


def _random_subspace(spec: FieldSpec, ambient: int, rng: random.Random) -> Subspace:
    return Subspace(spec, ambient, _random_matrix(spec, rng.randrange(ambient + 1), ambient, rng))


def _selftest_rref(rng: random.Random, trials: int):
    """Row operations must not change the canonical form."""
    for trial in range(trials):
        spec = FieldSpec(rng.choice((2, 3, 5)))
        rows, cols = rng.randrange(1, 5), rng.randrange(1, 5)
        mat = _random_matrix(spec, rows, cols, rng)
        reduced, rank, _ = mat.rref()
        if reduced.rref()[0] != reduced:
            return {"oracle": "rref-idempotent", "matrix": mat.to_json_dict()}
        scramble = Matrix(spec, [[rng.randrange(spec.p) for _ in range(rows)] for _ in range(rows)])
        if scramble.rank() < rows:
            continue
        if (scramble @ mat).rref()[0] != reduced:
            return {
                "oracle": "rref-canonical",
                "matrix": mat.to_json_dict(),
                "scramble": scramble.to_json_dict(),
            }
        if rank > min(rows, cols):
            return {"oracle": "rref-rank", "matrix": mat.to_json_dict()}
    return None


def _selftest_invariant_count(rng: random.Random, trials: int):
    """p**invariant_dim must equal the brute-force count of solutions."""
    for p in (2, 3):
        spec = FieldSpec(p)
        all_maps = [
            Matrix(spec, [[a, b], [c, d]])
            for a, b, c, d in itertools.product(range(p), repeat=4)
        ]
        for trial in range(trials):
            constraints = [
                MapConstraint(_random_subspace(spec, 2, rng), _random_subspace(spec, 2, rng))
                for _ in range(rng.randrange(1, 4))
            ]
            count = 0
            for candidate in all_maps:
                if all(
                    c.target.contains_vector(c.source.basis.row(i) @ candidate)
                    for c in constraints
                    for i in range(c.source.dim)
                ):
                    count += 1
            expected = p ** invariant_dim(constraints, spec=spec, ambient=2)
            if count != expected:
                return {
                    "oracle": "invariant-count",
                    "p": p,
                    "constraints": [
                        {"source": c.source.to_json_dict(), "target": c.target.to_json_dict()}
                        for c in constraints
                    ],
                    "count": count,
                    "expected": expected,
                }
    return None


def _selftest_dim_bound(rng: random.Random, trials: int):
    """Trivially intersecting subspaces obey sum dim <= (s-1) dim(sum)."""
    spec = FieldSpec(3)
    hits = 0
    for trial in range(trials):
        parts = [_random_subspace(spec, 4, rng) for _ in range(rng.choice((2, 3, 4)))]
        if not intersect_all(parts).is_zero:
            continue
        hits += 1
        total = parts[0]
        for part in parts[1:]:
            total = total + part
        if sum(part.dim for part in parts) > (len(parts) - 1) * total.dim:
            return {
                "oracle": "dim-bound",
                "parts": [part.to_json_dict() for part in parts],
            }
    return None if hits else {"oracle": "dim-bound", "error": "no instances sampled"}


def _selftest_extraction(rng: random.Random):
    """Random constant-repair instances must induce verified families."""
    for n, ell in ((4, 2), (5, 4)):
        code, scheme = random_constant_instance(n, n - 2, ell, rng)
        family = extract_family(code, scheme)
        if not family.verify().ok:
            return {
                "oracle": "extraction",
                "code": code.to_json_dict(),
                "scheme": scheme.to_json_dict(),
            }
        data = [
            [rng.randrange(code.spec.p) for _ in range(ell)] for _ in range(code.k)
        ]
        blocks = code.encode(data)
        node = rng.randrange(code.k)
        result = repair_node(code, scheme, node, blocks)
        if result.block != blocks[node] or not result.bandwidth.meets_cutset:
            return {
                "oracle": "extraction-repair",
                "code": code.to_json_dict(),
                "scheme": scheme.to_json_dict(),
                "data": data,
                "node": node,
            }
    return None


def _selftest_decay(rng: random.Random):
    """Decay inequalities must hold for a constructed family."""
    family = construct_tensor_family(2, 2, FieldSpec(3), 2)
    order = list(range(family.k))
    rng.shuffle(order)
    for choice in (None, order):
        trace = decay_trace(family, choice)  # raises LemmaViolation on failure
        if trace.dims[0] != family.ell ** 2 or trace.dims[-1] < 1:
            return {"oracle": "decay-endpoints", "order": list(trace.order)}
    return None


def cmd_selftest(args: argparse.Namespace) -> int:
    rng = random.Random(args.seed)
    suites = (
        ("rref canonical form (40 trials)", lambda: _selftest_rref(rng, 40)),
        ("invariant-map counts vs enumeration (12 trials/field)",
         lambda: _selftest_invariant_count(rng, 12)),
        ("dimension bound on trivial intersections (60 trials)",
         lambda: _selftest_dim_bound(rng, 60)),
        ("constant-repair extraction round trip", lambda: _selftest_extraction(rng)),
        ("geometric decay endpoints", lambda: _selftest_decay(rng)),
    )
    for label, suite in suites:
        finding = suite()
        if finding is not None:
            finding["replay"] = f"msrlab selftest --seed {args.seed}"
            return _fail(finding)
        print(f"ok: {label}")
    print(f"SELFTEST PASS seed={args.seed}")
    return 0


# ----------------------------------------------------------------------
# parser wiring

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="msrlab", description="exact-arithmetic lab for MSR subspace families"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a tensor-product family, write JSON")
    p.add_argument("--r", type=int, required=True, help="regeneration parameter (>= 2)")
    p.add_argument("--m", type=int, required=True, help="tensor power, ell = r**m")
    p.add_argument("--p", type=int, required=True, help="field modulus (odd prime)")
    p.add_argument("--lambda", type=int, default=2, dest="lam",
                   help="eigenvalue scalar, not 0 or 1 mod p (default 2)")
    p.add_argument("--ceiling", type=int, default=DEFAULT_CEILING,
                   help=f"largest allowed ell (default {DEFAULT_CEILING})")
    p.add_argument("--out", required=True, help="output family JSON path")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="check the two defining properties of a family")
    p.add_argument("--in", dest="infile", required=True, help="family JSON path")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bound", help="check k <= 4 r ln(ell) with certified arithmetic")
    p.add_argument("--in", dest="infile", required=True, help="family JSON path")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("decay", help="trace invariant dimension decay to CSV")
    p.add_argument("--in", dest="infile", required=True, help="family JSON path")
    p.add_argument("--order", default="identity",
                   help="member order: 'identity' or 'random:<seed>'")
    p.add_argument("--out", default=None, help="CSV path (default: print table)")
    p.set_defaults(func=cmd_decay)

    p = sub.add_parser("sweep", help="tabulate construction size against the bound")
    p.add_argument("--r-list", default="2,3", help="comma-separated r values")
    p.add_argument("--m-list", default="1,2,3,4", help="comma-separated m values")
    p.add_argument("--p", type=int, default=3, help="field modulus (default 3)")
    p.add_argument("--lambda", type=int, default=2, dest="lam")
    p.add_argument("--ceiling", type=int, default=DEFAULT_CEILING)
    p.add_argument("--out", default=None, help="CSV path (default: print table)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("evenodd", help="exhaustively repair the worked 4-node code")
    p.add_argument("--repair", type=int, default=None, help="check one node only")
    p.set_defaults(func=cmd_evenodd)

    p = sub.add_parser("repair-check", help="run the scheme checker on code + scheme")
    p.add_argument("--code", required=True, help="code JSON path")
    p.add_argument("--scheme", required=True, help="scheme JSON path")
    p.add_argument("--node", type=int, default=None, help="check one node only")
    p.set_defaults(func=cmd_repair_check)

    p = sub.add_parser("extract", help="extract the subspace family behind a constant scheme")
    p.add_argument("--code", required=True, help="code JSON path")
    p.add_argument("--scheme", required=True, help="constant scheme JSON path")
    p.add_argument("--out", default=None, help="family JSON output path")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("cutset", help="print the repair bandwidth lower bound")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.set_defaults(func=cmd_cutset)

    p = sub.add_parser("selftest", help="run the brute-force oracle suites")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except LemmaViolation as exc:
        print(
            json.dumps(
                {"failure": "decay-violation", "message": str(exc), "payload": exc.payload},
                indent=2,
            )
        )
        return 1
    except MsrLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        print(f"error: malformed input, missing key {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
