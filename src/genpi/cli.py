"""Command-line front end.

Exit codes: 0 success, 1 a checked mathematical verdict is false, 2 usage
or validation errors (malformed algebra, action and generator input among
them: a wrong name or argument, a generator of more than one multilinear
component), 3 budget exceeded.  GENPI_MAX_ROWS overrides the row budget
(evaluation rows for kernels; master rows for codimensions and
containment).  poly check builds one master row at a time, each within
the engine's byte cap.  --json emits one machine-readable object with the
same content as the text output.
"""

from __future__ import annotations

import argparse
import json
import sys

from .actions import (
    load_action,
    semidirect_product,
    semisimple_part_action,
    effective_image,
    shared_family_presentations,
)
from .algebras import load_algebra, predicates
from .codim import (
    _grassmann_stabilized,
    codimension,
    growth_report,
    identity_kernel_polynomials,
    identity_kernel_basis,
    identity_witness,
    preset_generators,
    variety_contains,
    verify_generating_set,
)
from .errors import BasisMismatch, BudgetExceeded, GenpiError, InternalError
from .multipliers import (
    inner_ideal_check,
    inner_multiplier_map,
    multiplier_algebra,
    permutability_check,
)
from .polynomials import parse as parse_poly
from .structure import jacobson_radical, pi_exponent, wedderburn_malcev


def _print(lines, payload, as_json):
    if as_json:
        print(json.dumps(payload, default=str))
    else:
        for ln in lines:
            print(ln)


def _fmt_matrix(m):
    return [[str(x) for x in row] for row in m.to_lists()]


def cmd_algebra(args):
    A = load_algebra(args.algebra)
    if args.verb == "validate":
        # loading already validated; reaching here means it passed
        payload = {"algebra": args.algebra, "valid": True, "dim": A.dim}
        return ["valid: dim %d, associativity and unit axioms hold" % A.dim], payload, 0
    nz = sum(1 for _ in A.iter_nonzero_constants())
    lines = [
        f"dim: {A.dim}",
        f"labels: {' '.join(A.labels)}",
        f"unital: {A.unit is not None}",
        f"nonzero structure constants: {nz}",
        f"non_degenerate: {predicates(A, 'non_degenerate')}",
        f"idempotent: {predicates(A, 'idempotent')}",
    ]
    payload = {
        "algebra": args.algebra,
        "dim": A.dim,
        "labels": A.labels,
        "unital": A.unit is not None,
        "nonzero_constants": nz,
        "non_degenerate": predicates(A, "non_degenerate"),
        "idempotent": predicates(A, "idempotent"),
    }
    return lines, payload, 0


def cmd_multiplier(args):
    A = load_algebra(args.algebra)
    MA = multiplier_algebra(A)
    _, kernel, injective, surjective = inner_multiplier_map(A, MA)
    perm_ok, perm_witness = permutability_check(A, MA)
    inner_ok, inner_witness = inner_ideal_check(A, MA)
    lines = [
        f"dim M(A): {MA.dim}",
        f"canonical map injective: {injective}",
        f"canonical map surjective: {surjective}",
        f"permutability: {perm_ok}" + (f" (witness basis pair {perm_witness})" if perm_witness else ""),
        f"inner ideal: {inner_ok}",
    ]
    if args.verbose:
        for i, m in enumerate(MA.basis):
            lines.append(f"pair {i}: R={_fmt_matrix(m.R)} L={_fmt_matrix(m.L)}")
    payload = {
        "algebra": args.algebra,
        "dim": MA.dim,
        "injective": injective,
        "surjective": surjective,
        "permutability": perm_ok,
        "permutability_witness": perm_witness,
        "inner_ideal": inner_ok,
        "pairs": [
            {"R": _fmt_matrix(m.R), "L": _fmt_matrix(m.L)} for m in MA.basis
        ],
    }
    return lines, payload, 0


def cmd_structure(args):
    A = load_algebra(args.algebra)
    if args.verb == "radical":
        J = jacobson_radical(A)
        lines = [f"radical dimension: {J.dim}"]
        if args.verbose:
            for v in J.basis:
                lines.append("  " + A.describe(list(v)))
        payload = {"algebra": args.algebra, "radical_dim": J.dim,
                   "radical_basis": [[str(x) for x in v] for v in J.basis]}
        return lines, payload, 0
    if args.verb == "wm":
        wm = wedderburn_malcev(A)
        shapes = sorted(b.dim for b in wm.blocks)
        lines = [
            f"radical dimension: {wm.radical.dim}",
            f"semisimple complement dimension: {wm.semisimple_complement.dim}",
            f"block dimensions: {shapes}",
        ]
        if args.verbose:
            for i, b in enumerate(wm.blocks):
                lines.append(f"block {i}:")
                for v in b.basis:
                    lines.append("  " + A.describe(list(v)))
        payload = {"algebra": args.algebra, "radical_dim": wm.radical.dim,
                   "complement_dim": wm.semisimple_complement.dim, "block_dims": shapes}
        return lines, payload, 0
    e = pi_exponent(A)
    return [f"exponent: {e}"], {"algebra": args.algebra, "exponent": e}, 0


def cmd_action(args):
    h = load_action(args.action)  # validation happens on load for presets/files
    if args.verb == "validate":
        lines = [
            f"valid action: coefficient dim {h.W.dim} on algebra dim {h.A.dim}",
            f"kernel tail: {h.kernel_tail}",
        ]
        payload = {"action": args.action, "valid": True, "W_dim": h.W.dim,
                   "A_dim": h.A.dim, "kernel_tail": h.kernel_tail}
        return lines, payload, 0
    if args.verb == "semidirect":
        sd, maps = semidirect_product(h)
        lines = [
            f"semidirect product dimension: {sd.dim}",
            f"unital: {sd.unit is not None}",
            f"labels: {' '.join(sd.labels)}",
        ]
        payload = {"action": args.action, "dim": sd.dim,
                   "unital": sd.unit is not None, "labels": sd.labels}
        return lines, payload, 0
    ss, holds = semisimple_part_action(h)
    before = effective_image(h).image_algebra.dim
    after = effective_image(ss).image_algebra.dim
    lines = [
        f"image dimension: {before} -> {after}",
        f"image radical inside inner radical pairs: {holds}",
    ]
    payload = {"action": args.action, "image_dim_before": before,
               "image_dim_after": after, "radical_hypothesis": holds}
    return lines, payload, 0


def cmd_poly(args):
    h = load_action(args.action)
    node = parse_poly(args.poly)
    witness = identity_witness(node, h)
    ok = witness is None
    lines = [f"identity: {ok}"]
    payload = {"action": args.action, "poly": args.poly, "identity": ok}
    if not ok:
        vs, labels = witness
        lines.append("witness: " + ", ".join(f"x{v} = {lab}" for v, lab in zip(vs, labels)))
        payload["witness"] = {f"x{v}": lab for v, lab in zip(vs, labels)}
    return lines, payload, 0 if ok else 1


def _load_generators(spec, action_name):
    if spec == "preset":
        return preset_generators(action_name)
    with open(spec) as fh:
        out = []
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                out.append(line)
        return out


def cmd_codim(args):
    if args.verb == "compute":
        h = load_action(args.action)
        value = codimension(h, args.n)
        return [str(value)], {"action": args.action, "n": args.n, "codimension": value}, 0
    if args.verb == "kernel":
        h = load_action(args.action)
        kernel = identity_kernel_basis(h, args.n)
        lines = [f"kernel dimension: {kernel.dim}"]
        payload = {"action": args.action, "n": args.n, "kernel_dim": kernel.dim}
        if args.print_identities:
            polys = identity_kernel_polynomials(h, args.n)
            rendered = []
            for terms in polys:
                parts = []
                for c, label in terms:
                    sign = "+" if c > 0 else "-"
                    mag = abs(c)
                    parts.append(f"{sign} {'' if mag == 1 else str(mag) + '*'}{label}")
                rendered.append(" ".join(parts).lstrip("+ "))
            lines.extend(rendered)
            payload["identities"] = rendered
        return lines, payload, 0
    if args.verb == "verify-gens":
        h = load_action(args.action)
        gens = _load_generators(args.polyfile, args.action)
        ok = verify_generating_set(gens, h, args.n)
        lines = [f"generates all identities at degree {args.n}: {ok}"]
        payload = {"action": args.action, "n": args.n, "generators": gens, "verified": ok}
        return lines, payload, 0 if ok else 1
    if args.verb == "contains":
        try:
            hA, hB = shared_family_presentations(args.action, args.action_b)
        except BasisMismatch:
            hA, hB = load_action(args.action), load_action(args.action_b)
        ok = variety_contains(hA, hB, args.n)
        lines = [f"identities of {args.action} hold in {args.action_b} up to degree {args.n}: {ok}"]
        if not ok:
            lines.append("a multilinear identity of the first action fails in the second")
        payload = {"first": args.action, "second": args.action_b, "n": args.n, "contained": ok}
        return lines, payload, 0 if ok else 1
    if args.verb == "grassmann":
        value, level = _grassmann_stabilized(args.k, args.n)
        rule = "parity classes: the rank is constant from level k + n on"
        stop = {"rule": rule, "level": level, "proved": True}
        return [str(value)], {"k": args.k, "n": args.n, "codimension": value, "stop": stop}, 0
    if args.verb == "growth":
        h = load_action(args.action)
        rep = growth_report(h, args.to)
        lines = ["degree codimension root"]
        for i, n in enumerate(rep.degrees):
            v = rep.values[i]
            r = rep.roots[i]
            lines.append(f"{n} {'skipped' if v is None else v} {'-' if r is None else f'{r:.4f}'}")
        if rep.exponent is not None:
            lines.append(f"block-linking exponent: {rep.exponent}")
        return lines, rep.to_dict() | {"action": args.action}, 0
    raise InternalError(f"unknown codim verb {args.verb!r}")


class _Text(argparse.Action):
    """The rest of the command line joined into one text, so that a
    polynomial may start with '-' (as str() prints -1*x1 + x2)."""

    def __call__(self, parser, namespace, values, option_string=None):
        if not values:
            parser.error(f"the following arguments are required: {self.dest}")
        setattr(namespace, self.dest, " ".join(values))


def build_parser():
    p = argparse.ArgumentParser(prog="genpi", description=__doc__)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    sub = p.add_subparsers(dest="cmd", required=True)

    pa = sub.add_parser("algebra", help="inspect or validate an algebra")
    pa.add_argument("verb", choices=["info", "validate"])
    pa.add_argument("algebra")
    pa.add_argument("--verbose", action="store_true")
    pa.set_defaults(func=cmd_algebra)

    pm = sub.add_parser("multiplier", help="compute the multiplier algebra")
    pm.add_argument("verb", choices=["compute"])
    pm.add_argument("algebra")
    pm.add_argument("--verbose", action="store_true")
    pm.set_defaults(func=cmd_multiplier)

    ps = sub.add_parser("structure", help="radical, decomposition, exponent")
    ps.add_argument("verb", choices=["radical", "wm", "exponent"])
    ps.add_argument("algebra")
    ps.add_argument("--verbose", action="store_true")
    ps.set_defaults(func=cmd_structure)

    pc = sub.add_parser("action", help="validate and transform actions")
    pc.add_argument("verb", choices=["validate", "semidirect", "ss-part"])
    pc.add_argument("action")
    pc.set_defaults(func=cmd_action)

    pp = sub.add_parser("poly", help="check a polynomial against an action")
    pp.add_argument("verb", choices=["check"])
    pp.add_argument("action")
    pp.add_argument("poly", nargs=argparse.REMAINDER, action=_Text)
    pp.set_defaults(func=cmd_poly)

    pd = sub.add_parser("codim", help="codimension engine")
    pdv = pd.add_subparsers(dest="verb", required=True)
    for verb in ("compute", "kernel"):
        q = pdv.add_parser(verb)
        q.add_argument("action")
        q.add_argument("-n", type=int, required=True)
        if verb == "kernel":
            q.add_argument("--print-identities", action="store_true")
        q.set_defaults(func=cmd_codim)
    q = pdv.add_parser("verify-gens")
    q.add_argument("action")
    q.add_argument("polyfile", help="path with one polynomial per line, or 'preset'")
    q.add_argument("-n", type=int, required=True)
    q.set_defaults(func=cmd_codim)
    q = pdv.add_parser("contains")
    q.add_argument("action")
    q.add_argument("action_b")
    q.add_argument("-n", type=int, required=True)
    q.set_defaults(func=cmd_codim)
    about = ("codimension of the k-generator exterior action, computed on the "
             "truncation at level k + n, from which on it is proved constant")
    q = pdv.add_parser("grassmann", help=about, description=about)
    q.add_argument("-k", type=int, required=True)
    q.add_argument("-n", type=int, required=True)
    q.set_defaults(func=cmd_codim)
    q = pdv.add_parser("growth")
    q.add_argument("action")
    q.add_argument("--to", type=int, required=True)
    q.set_defaults(func=cmd_codim)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        lines, payload, code = args.func(args)
    except BudgetExceeded as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return 3
    except GenpiError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    _print(lines, payload | {"ok": code == 0}, args.json)
    return code


if __name__ == "__main__":
    sys.exit(main())
