"""The ``jt`` command-line driver.

Subcommands: ``check`` (validate everything a ``.jt`` file declares),
``close`` (bounded eager closure of the declared theories), ``derive``
(run a named derivation), ``render`` (print one rule as a proof figure)
and ``demo`` (the three built-in worked examples).  Every command emits
a report — plain text by default, JSON with ``--json`` — and exits
nonzero as soon as any check fails.  Report format version: jt/1.
"""

from __future__ import annotations

import argparse
import json
import sys

from .core import (check_adjunction, checking, validate_category,
                   validate_functor, validate_nat_trans)
from .dsl import JtSyntaxError, load_document, parse_dsl
from .fibrations import verify_kind
from .render import SCHEMAS, derived_rule, finalize, render_rule_tree
from .theory import check_axioms, eager_close, validate_prejt

REPORT_VERSION = "jt/1"


class Report:
    def __init__(self, command):
        self.command = command
        self.checks = []    # (name, diagnostics)
        self.output = []    # display lines

    def check(self, name, diagnostics):
        self.checks.append((name, list(diagnostics)))
        return not diagnostics

    def say(self, *lines):
        self.output.extend(lines)

    @property
    def ok(self):
        return all(not d for (_, d) in self.checks)

    def emit(self, as_json=False):
        status = "ok" if self.ok else "fail"
        if as_json:
            doc = {"report": REPORT_VERSION,
                   "command": self.command,
                   "status": status,
                   "checks": [{"name": n, "status": "ok" if not d else "fail",
                               "diagnostics": d} for (n, d) in self.checks],
                   "output": self.output}
            print(json.dumps(doc, ensure_ascii=False, indent=2))
        else:
            print(finalize(f"report {REPORT_VERSION}"))
            print(finalize(f"command: {self.command}"))
            for (n, d) in self.checks:
                print(finalize(f"check {n}: {'ok' if not d else 'FAIL'}"))
                for line in d:
                    print(finalize(f"  - {line}"))
            for line in self.output:
                print(finalize(line))
            print(finalize(f"status: {status}"))
        return 0 if self.ok else 1


def _load(path, report):
    try:
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        report.check(f"read {path}", [str(e)])
        return None
    try:
        doc = parse_dsl(text)
    except JtSyntaxError as e:
        report.check(f"parse {path}", [str(e)])
        return None
    report.check(f"parse {path}", [])
    loaded = load_document(doc)
    report.check("resolve names", loaded.errors)
    return loaded


def _build_instance(builtin, args, report):
    """Materialize one of the built-in worked examples and validate it."""
    if builtin == "toy":
        from .toy import build_toy_theory, extension_oracle
        toy = build_toy_theory()
        report.check("toy: context-extension lift", toy.ext_lift.diagnostics)
        report.check("toy: theory shape", validate_prejt(toy.theory))
        report.check("toy: closure axioms", check_axioms(toy.theory))
        report.check("toy: extension against subsets", extension_oracle(toy))
        return toy
    if builtin == "dtt-finset":
        from .dtt import validate_jdtt
        from .finset_topos import build_finset_topos
        n = args[0] if args else 2
        J = build_finset_topos(n)
        report.check(f"dtt-finset({n}): defining conditions", validate_jdtt(J))
        return J
    if builtin == "ndt-powerset":
        from .ndt import PowersetDoctrine, build_deduction_system, \
            validate_system
        n = args[0] if args else 2
        ds = build_deduction_system(PowersetDoctrine(n))
        report.check(f"ndt-powerset({n}): generating laws",
                     validate_system(ds))
        return ds
    report.check(f"instance {builtin}", [f"unknown built-in {builtin!r}"])
    return None


def _instances(loaded, report, want=None):
    """Build every instance a file declares (optionally only one kind)."""
    out = {}
    for name, (builtin, args, _) in loaded.instances.items():
        if want is not None and builtin != want:
            continue
        out[name] = (builtin, _build_instance(builtin, args, report))
    return out


# --------------------------------------------------------------------------
# check
# --------------------------------------------------------------------------

def cmd_check(ns, report):
    loaded = _load(ns.file, report)
    if loaded is None:
        return
    broken = {}     # id of a category that failed its check -> its name
    for name, cat in loaded.categories.items():
        if not report.check(f"category {name}", validate_category(cat)):
            broken[id(cat)] = name

    def ends(*functors):
        return [c for F in functors for c in (F.dom, F.cod)]

    def check(label, cats, run):
        # A check that reads a category which failed its own check would
        # read tables that cannot be trusted, so it is not run.
        failed = dict.fromkeys(broken[id(c)] for c in cats if id(c) in broken)
        report.check(label, [f"uses category {n}, which failed its check"
                             for n in failed] or run())

    for name, F in loaded.functors.items():
        check(f"functor {name}", ends(F), lambda: validate_functor(F))
    for name, t in loaded.nats.items():
        check(f"nat {name}", ends(t.source, t.target),
              lambda: validate_nat_trans(t))
    for name, adj in loaded.adjunctions.items():
        check(f"adjunction {name}", ends(adj.left, adj.right),
              lambda: check_adjunction(adj))
    for name, cl in loaded.classifiers.items():
        kind = loaded.kinds[name]
        expect = kind if kind != "functor" else None
        check(f"classifier {name}", ends(cl.proj),
              lambda: verify_kind(cl, expect=expect))
    for name, T in loaded.theories.items():
        cats = [T.ctx, *ends(*T.rules.values(),
                             *(cl.proj for cl in T.judgements.values()),
                             *(F for (t, _) in T.policies.values()
                               for F in (t.source, t.target)))]
        check(f"theory {name}: shape", cats, lambda: validate_prejt(T))
        check(f"theory {name}: closure axioms", cats, lambda: check_axioms(T))
    for name, doc in loaded.doctrines.items():
        from .ndt import build_deduction_system, validate_system
        report.check(f"doctrine {name}", validate_system(
            build_deduction_system(doc)))
    _instances(loaded, report)


# --------------------------------------------------------------------------
# close
# --------------------------------------------------------------------------

def cmd_close(ns, report):
    loaded = _load(ns.file, report)
    if loaded is None:
        return
    theories = dict(loaded.theories)
    for name, (builtin, inst) in _instances(loaded, report).items():
        if inst is None:
            continue
        T = getattr(inst, "theory", None)
        if T is not None:
            theories[name] = T
    if not theories:
        report.check("close", ["the file declares no theory or instance"])
        return
    for name, T in theories.items():
        before = len(T.registry)
        new = eager_close(T, depth=ns.depth)
        report.check(f"close {name}", validate_prejt(T))
        report.say(f"{name}: {before} registered, {len(new)} new:")
        for key in new:
            report.say(f"  {key}")


# --------------------------------------------------------------------------
# derive
# --------------------------------------------------------------------------

def _show_rules(report, names):
    for name in names:
        rule = derived_rule(name, "", "", None)
        report.say("", *render_rule_tree(rule, "text").splitlines())


def _derive_dtt(J, which, report):
    from .dtt import derive_dependency, id_extensionality, phi_derive
    from .finset_topos import instantiate_constructor
    if which in ("dty", "dtm"):
        dep = derive_dependency(J)
        report.check("dependency lifts", dep.diagnostics)
        _show_rules(report, ["DTy" if which == "dty" else "DTm"])
        return
    dep = derive_dependency(J) if which == "sum" else None
    C = instantiate_constructor(J, which, dep)
    rules = phi_derive(J, C)
    report.check(f"constructor {C.name}", rules.diagnostics)
    if which == "pi":
        _show_rules(report, ["ΠF", "ΠI", "ΠE", "ΠβC", "ΠηC"])
    elif which == "id":
        report.check("Id extensionality", id_extensionality(J, C))
        _show_rules(report, ["IdF", "IdI", "IdE1", "IdE2"])
    else:
        _show_rules(report, ["⅀F", "⅀I"])


def _derive_ndt(ds, which, report):
    from .ndt import derive_structural, forall_rules, quantifier_package
    if which == "cut":
        st = derive_structural(ds)
        report.check("structural derivations", st.diagnostics)
        _show_rules(report, ["Cut"])
        return
    if which.startswith("structural:"):
        name = which.split(":", 1)[1]
        st = derive_structural(ds)
        report.check("structural derivations", st.diagnostics)
        if name not in ("H", "W", "C", "Sw"):
            report.check(f"rule {name}", [f"unknown structural rule {name!r}"])
            return
        _show_rules(report, [name])
        return
    if which == "forall":
        y = min(1, ds.doctrine.n)
        if not hasattr(ds.doctrine, "extend"):
            report.check(f"quantifier adjunctions (sort {y})",
                         ["quantifiers need a powerset doctrine"])
            return
        qp = quantifier_package(ds, y)
        report.check(f"quantifier adjunctions (sort {y})", qp.diagnostics)
        qr = forall_rules(ds, y)
        report.check("universal introduction", qr.diagnostics)
        _show_rules(report, ["∀I", "∀E"])
        return
    report.check(f"derive {which}", [f"no derivation named {which!r}"])


def cmd_derive(ns, report):
    loaded = _load(ns.file, report)
    if loaded is None:
        return
    dtt_rules = ("dty", "dtm", "pi", "id", "sum")
    want = "dtt-finset" if ns.rule in dtt_rules else "ndt-powerset"
    instances = _instances(loaded, report, want=want)
    if want == "ndt-powerset" and not instances:
        # A bare doctrine block also supports the sequent-side derivations.
        from .ndt import build_deduction_system, validate_system
        for name, doc in loaded.doctrines.items():
            ds = build_deduction_system(doc)
            report.check(f"doctrine {name}", validate_system(ds))
            instances[name] = ("ndt-powerset", ds)
    if not instances:
        report.check(f"derive {ns.rule}",
                     [f"the file declares no {want} instance"])
        return
    for name, (_, inst) in instances.items():
        if inst is None:
            continue
        if want == "dtt-finset":
            _derive_dtt(inst, ns.rule, report)
        else:
            _derive_ndt(inst, ns.rule, report)


# --------------------------------------------------------------------------
# render
# --------------------------------------------------------------------------

def cmd_render(ns, report):
    if ns.file is not None:
        loaded = _load(ns.file, report)
        if loaded is None:
            return
    if ns.rule not in SCHEMAS:
        known = ", ".join(sorted(SCHEMAS))
        report.check(f"rule {ns.rule}",
                     [f"no display schema named {ns.rule!r}; known: {known}"])
        return
    rule = derived_rule(ns.rule, "", "", None)
    report.say(*render_rule_tree(rule, ns.format).splitlines())


# --------------------------------------------------------------------------
# demo
# --------------------------------------------------------------------------

def _demo_toy(report):
    toy = _build_instance("toy", [], report)
    report.say("judgements: t, c, v   rules: e, u, ext, id_ℂ   policy: ε")
    for r in toy.rules:
        report.say("", *render_rule_tree(r, "text").splitlines())


def _demo_dtt(report):
    from .dtt import derive_dependency, derive_display_transport, \
        id_extensionality, phi_derive
    from .finset_topos import instantiate_constructor
    J = _build_instance("dtt-finset", [2], report)
    dep = derive_dependency(J)
    report.check("dependency lifts", dep.diagnostics)
    tr = derive_display_transport(J, dep)
    report.check("display transport", tr.diagnostics)
    shown = ["ext", "DTy", "DTm"]
    for which, names in (("pi", ["ΠF", "ΠI", "ΠE", "ΠβC", "ΠηC"]),
                         ("id", ["IdF", "IdI", "IdE1", "IdE2"]),
                         ("sum", ["⅀F", "⅀I"])):
        C = instantiate_constructor(J, which, dep)
        rules = phi_derive(J, C)
        report.check(f"constructor {C.name}", rules.diagnostics)
        if which == "id":
            report.check("Id extensionality", id_extensionality(J, C))
        shown += names
    report.say(f"rules: {', '.join(shown)}")
    _show_rules(report, shown)


def _demo_ndt(report):
    from .ndt import (derive_connectives, derive_structural, forall_rules,
                      pair_comparison, quantifier_package, sequent_monad)
    ds = _build_instance("ndt-powerset", [2], report)
    st = derive_structural(ds)
    report.check("structural derivations", st.diagnostics)
    cn = derive_connectives(ds)
    report.check("conjunction rules", cn.diagnostics)
    mon = sequent_monad(ds)
    report.check("sequent monad", mon.diagnostics)
    report.check("sequent monad idempotent",
                 [] if mon.idempotent else ["S∘S ≠ S"])
    pc = pair_comparison(ds, mon)
    report.check("Kleisli against proposition pairs", pc.diagnostics)
    qp = quantifier_package(ds, 1)
    report.check("quantifier adjunctions (sort 1)", qp.diagnostics)
    qr = forall_rules(ds, 1)
    report.check("universal introduction", qr.diagnostics)
    shown = ["H", "Sw", "C", "W", "Cut", "∧I", "∧E1", "∧E2", "∀I", "∀E"]
    report.say(f"rules: {', '.join(shown)}")
    _show_rules(report, shown)


def cmd_demo(ns, report):
    {"toy": _demo_toy,
     "dtt-finset": _demo_dtt,
     "ndt-powerset": _demo_ndt}[ns.which](report)


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def build_parser():
    p = argparse.ArgumentParser(
        prog="jt",
        description="Validate, close and derive finite judgemental theories.")
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp):
        sp.add_argument("--json", action="store_true",
                        help="emit the report as JSON")

    sp = sub.add_parser("check", help="validate everything a file declares")
    sp.add_argument("file")
    common(sp)
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("close", help="bounded eager limit closure")
    sp.add_argument("file")
    sp.add_argument("--depth", type=int, default=1)
    common(sp)
    sp.set_defaults(fn=cmd_close)

    sp = sub.add_parser("derive", help="run a named derivation")
    sp.add_argument("file")
    sp.add_argument("--rule", required=True,
                    help="dty, dtm, pi, id, sum, cut, structural:<X>, forall")
    common(sp)
    sp.set_defaults(fn=cmd_derive)

    sp = sub.add_parser("render", help="print one rule as a proof figure")
    sp.add_argument("file", nargs="?", default=None)
    sp.add_argument("--rule", required=True)
    sp.add_argument("--format", choices=("text", "latex"), default="text")
    common(sp)
    sp.set_defaults(fn=cmd_render)

    sp = sub.add_parser("demo", help="run a built-in worked example")
    sp.add_argument("which", choices=("toy", "dtt-finset", "ndt-powerset"))
    common(sp)
    sp.set_defaults(fn=cmd_demo)
    return p


def _command(ns) -> str:
    """The ``command:`` line of the report on the parsed arguments."""
    if ns.cmd == "check":
        return f"check {ns.file}"
    if ns.cmd == "close":
        return f"close {ns.file} --depth {ns.depth}"
    if ns.cmd == "derive":
        return f"derive {ns.file} --rule {ns.rule}"
    if ns.cmd == "render":
        where = f"{ns.file} " if ns.file else ""
        return f"render {where}--rule {ns.rule} --format {ns.format}"
    return f"demo {ns.which}"


def main(argv=None):
    """Run one command and print its report; returns the exit status.

    The command runs in one check context (``core.checking``), so each
    category and functor it reads is checked once.  A request whose
    categories do not fit in memory ends in a failing report, with the
    checks made before it ran out."""
    ns = build_parser().parse_args(argv)
    report = Report(_command(ns))
    try:
        with checking():
            ns.fn(ns, report)
    except MemoryError:
        report.check("memory", ["out of memory: the categories this request "
                                "builds do not fit"])
    return report.emit(ns.json)


if __name__ == "__main__":
    sys.exit(main())
