"""The ``jt`` requests whose reports must not depend on the hash seed.

Each request runs in this process through ``judgekit.cli.main``, on the
demos and on the small documents below, written to a temporary
directory.  The output is every report in order, each under a ``==``
heading and followed by ``exit N``; the repository root and the
temporary directory are printed as ``$TMP`` and relative paths, so the
output is the same wherever it runs.  ``tests/golden/reports.txt`` holds
it, and ``tests/test_reports.py`` compares against it.  Run it from
anywhere, with ``judgekit`` importable:

    PYTHONHASHSEED=0 PYTHONPATH=src python tests/report_requests.py
"""

import contextlib
import io
import sys
import tempfile
import traceback
from pathlib import Path

from judgekit.cli import main

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"

# A `constructor` block, which the language does not have: the document
# must end in a parse failure, not a traceback.
CONSTRUCTOR = """\
category X
  object x
category Y
  object y
category Z
  object z
functor L : X -> Y
  object x |-> y
functor P : Y -> Z
  object y |-> z
functor Q : X -> Z
  object x |-> z
instance dtt2 = dtt-finset 2
constructor K mode strict
  lambda L
  phi P
  psi Q
"""

# Two adjunctions whose parts each pass their checks but do not fit
# together: the unit and counit run between the wrong functors, and L
# and R meet at different categories on one object.  Each must report
# FAIL, not ok and not a traceback.
ADJUNCTION_BOGUS = """\
category C
  object a
  object b
  morphism i : a -> b
  morphism j : b -> a
  j ∘ i = id_a
  i ∘ j = id_b
  complete
functor Id : C -> C
  object a |-> a
  object b |-> b
  morphism i |-> i
  morphism j |-> j
functor K : C -> C
  object a |-> b
  object b |-> a
  morphism i |-> j
  morphism j |-> i
nat eta : Id => K
  at a = i
  at b = j
nat eps : K => Id
  at a = j
  at b = i
adjunction bogus : Id -| Id
  unit eta
  counit eps
"""

ADJUNCTION_ODD = """\
category C
  object c
category D
  object x
  morphism e : x -> x
  e ∘ e = e
  complete
category E
  object x
functor L : C -> D
  object c |-> x
functor R : E -> C
  object x |-> c
functor IdC : C -> C
  object c |-> c
functor IdE : E -> E
  object x |-> x
nat u : IdC => IdC
  at c = id_c
nat v : IdE => IdE
  at x = id_x
adjunction odd : L -| R
  unit u
  counit v
"""


def documents() -> dict:
    """The documents the requests read besides the demos, by file name."""
    toy = (DEMOS / "toy.jt").read_text(encoding="utf-8")
    adjunction = (DEMOS / "adjunction.jt").read_text(encoding="utf-8")
    # The functor Id sends f to id_a and fails its check: the nat and the
    # adjunction over it must report failed squares, not a traceback.
    assert "morphism f |-> f\n" in adjunction
    return {
        "chain22.jt": "doctrine D = chain 2 2\n",
        "chain31.jt": "doctrine D = chain 3 1\n",
        "dtt2.jt": "instance J = dtt-finset 2\n",
        "dtt3.jt": "instance J = dtt-finset 3\n",
        "powerset2.jt": "doctrine D = powerset 2\n",
        "toy-instance.jt": "instance J = toy\n",
        "toy-bom.jt": "\ufeff" + toy,
        "constructor.jt": CONSTRUCTOR,
        "adjunction-id-a.jt": adjunction.replace("morphism f |-> f\n",
                                                 "morphism f |-> id_a\n"),
        "adjunction-bogus.jt": ADJUNCTION_BOGUS,
        "adjunction-odd.jt": ADJUNCTION_ODD,
    }


def requests(tmp: Path) -> list:
    """``(heading, argv)`` for every request, in order."""
    def doc(name):
        return str(tmp / name)
    out = [(f"demos/{f.name}", ["check", str(f)])
           for f in sorted(DEMOS.glob("*.jt"))]
    out += [(f"demo {d}", ["demo", d])
            for d in ("toy", "dtt-finset", "ndt-powerset")]
    out.append(("check toy.jt after a byte-order mark",
                ["check", doc("toy-bom.jt")]))
    out.append(("derive forall on powerset 2",
                ["derive", doc("powerset2.jt"), "--rule", "forall"]))
    out += [(f"derive {rule}", ["derive", doc("chain22.jt"), "--rule", rule])
            for rule in ("cut", "structural:W", "structural:C", "forall",
                         "structural:H", "structural:Sw")]
    out.append(("close --depth 1 on the toy theory",
                ["close", str(DEMOS / "toy.jt"), "--depth", "1"]))
    out.append(("close --depth 1 on the toy instance, through its ♯-lift",
                ["close", doc("toy-instance.jt"), "--depth", "1"]))
    out.append(("check dtt-finset 3", ["check", doc("dtt3.jt")]))
    out += [(f"derive {rule} on dtt-finset 3",
             ["derive", doc("dtt3.jt"), "--rule", rule])
            for rule in ("pi", "sum", "id", "dty", "dtm")]
    out.append(("close --depth 1 on dtt-finset 3",
                ["close", doc("dtt3.jt"), "--depth", "1"]))
    out += [(f"derive {rule} on dtt-finset 2",
             ["derive", doc("dtt2.jt"), "--rule", rule])
            for rule in ("pi", "sum")]
    out.append(("derive cut on chain 3 1",
                ["derive", doc("chain31.jt"), "--rule", "cut"]))
    out.append(("check a constructor block: a parse failure",
                ["check", doc("constructor.jt")]))
    out.append(("check adjunction.jt with f sent to id_a",
                ["check", doc("adjunction-id-a.jt")]))
    out += [(f"check {f}.jt: the parts do not fit together",
             ["check", doc(f"{f}.jt")])
            for f in ("adjunction-bogus", "adjunction-odd")]
    return out


def run(argv) -> tuple:
    """``(exit status, everything printed)`` of one request.  An uncaught
    exception prints its traceback and exits 1, as the ``jt`` script
    does."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 1
        except Exception:
            traceback.print_exc(file=buf)
            code = 1
    return code, buf.getvalue()


def all_reports() -> str:
    """Every report of ``requests``, with its heading and exit status."""
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        for file, text in documents().items():
            (tmp / file).write_text(text, encoding="utf-8")
        parts = []
        for heading, argv in requests(tmp):
            code, out = run(argv)
            parts.append(f"== {heading}\n{out}exit {code}\n")
        text = "".join(parts)
        return text.replace(str(tmp), "$TMP").replace(f"{ROOT}/", "")


if __name__ == "__main__":
    sys.stdout.write(all_reports())
