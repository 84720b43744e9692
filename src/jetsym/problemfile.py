"""Declarative problem files.

Plain-text, line oriented, diff friendly.  Sections open with a
bracketed header and hold ``key = expression`` lines:

* ``[jet]`` with ``independent``, ``dependent`` (comma separated) and
  ``order``, an integer of at least 1 in ASCII digits ``0-9`` with an
  optional sign (``٣`` or ``1_0`` is invalid input, though ``int()``
  reads both);
* ``[field NAME]`` with ``xi <independent> = expr``,
  ``phi <dependent> = expr`` and optional ``generalized = true``
  (flags read true/yes/1/on or false/no/0/off);
* ``[mu NAME]`` with scalar entries ``<independent> = expr`` or matrix
  entries ``<independent> <dep-row> <dep-col> = expr``;
* ``[gauge NAME]`` with ``<dep-row> <dep-col> = expr`` entries and
  optional ``inverse <dep-row> <dep-col> = expr`` lines;
* ``[equation NAME]`` with one ``leading-coordinate = expr`` line per
  dependent variable;
* ``[task KIND [ID]]`` naming one operation and its arguments; a task
  without an ID is ``task-N`` for the N-th task section, and two tasks
  may not share an ID.

Comments run from ``#`` to the end of the line.  A key may appear once
per section.  Missing mu/gauge entries are zero.

``TASK_ARGS`` is the one table of task kinds.  It gives each kind's
arguments in reading order, each mapped to whether it is required
(marked ``*``)::

    check-symmetry  field*, equation*, kind, lambda, mu, path-check
    prolong         field*, kind, lambda, mu, path-check, order
    check-compat    mu*, equation
    potential       mu*
    darboux         gauge*
    gauge-check     field*, phi*, order
    coincide        field*, mu*, order, path-check

``read_args`` reads a task's arguments, one after another in that
order, each by the rule for its name; ``cli.run`` reads every task's
before the first task runs:

* ``field``, ``equation``, ``mu``, ``gauge``: the declaration of that
  section kind; an undeclared name is an error at the argument's line;
* ``order``: an integer of at least 1 by the rule of the ``[jet]``
  order, default the jet order;
* ``path-check``: a flag, default false;
* ``lambda``, ``phi``: expressions, parsed like those of a section;
* ``kind``: ``standard`` (the default), ``lambda`` or ``mu``.  An
  argument that only another kind reads (``lambda``; ``mu`` and
  ``path-check``) is an error at its line, and so is a missing
  ``lambda =`` or ``mu =`` argument that the kind needs, at the task.

A missing required argument is an error at the task's line.  Then an
argument that the task's kind does not read is an error at the task.
The subcommands of ``cli`` give a task's arguments as flags
(``flag(name)``); there the flag stands in for every line.
"""

from __future__ import annotations

from .errors import ExprError, JetsymError, ProblemFileError
from .expr import ZERO
from .gauge import GaugeFunction
from .jets import JetSpec, MuForm, as_order, mat_identity
from .parsing import parse
from .prolong import PointVectorField
from .symmetry import DifferentialEquation

# each task kind, with the arguments that it reads in reading order, each
# mapped to whether the task requires it; read_args reads them
TASK_ARGS = {
    "check-symmetry": {"field": True, "equation": True, "kind": False,
                       "lambda": False, "mu": False, "path-check": False},
    "prolong": {"field": True, "kind": False, "lambda": False, "mu": False,
                "path-check": False, "order": False},
    "check-compat": {"mu": True, "equation": False},
    "potential": {"mu": True},
    "darboux": {"gauge": True},
    "gauge-check": {"field": True, "phi": True, "order": False},
    "coincide": {"field": True, "mu": True, "order": False, "path-check": False},
}

# the arguments that only some kinds of prolongation read, per kind
_KIND_ARGS = {"standard": (), "lambda": ("lambda",), "mu": ("mu", "path-check")}


class TaskDecl:
    """A task as written: its kind, id, argument texts with their lines,
    and its own line; ``values`` holds the arguments once ``cli.run``
    has read them with ``read_args``."""

    __slots__ = ("kind", "task_id", "args", "line", "values")

    def __init__(self, kind, task_id, args, line):
        self.kind = kind
        self.task_id = task_id
        self.args = args
        self.line = line
        self.values = None


class ProblemFile:
    """The jet space, the declarations keyed by ``(kind, name)``, and the
    tasks of a problem file."""

    __slots__ = ("spec", "declared", "tasks")

    def __init__(self, spec):
        self.spec = spec
        self.declared = {}
        self.tasks = []

    def named(self, kind, name, line=None):
        """The ``[kind name]`` declaration; an undeclared name is an error
        at ``line``."""
        if (kind, name) not in self.declared:
            noun = _DECLARATIONS[kind][0]
            raise ProblemFileError(f"undeclared {noun} {name!r}", line)
        return self.declared[kind, name]


def _strip_comment(line):
    pos = line.find("#")
    return line if pos < 0 else line[:pos]


def parse_flag(text, line_no) -> bool:
    """A boolean problem-file value: true/yes/1/on or false/no/0/off."""
    value = text.strip().lower()
    if value in ("true", "yes", "1", "on"):
        return True
    if value in ("false", "no", "0", "off"):
        return False
    raise ProblemFileError(
        f"expected true/yes/1/on or false/no/0/off, got {text!r}", line_no
    )


def _parse_expr(text, line_no):
    try:
        return parse(text)
    except ExprError as err:  # bad syntax, or a division by zero
        raise ProblemFileError(f"bad expression {text.strip()!r}: {err}", line_no)


def _parse_order(text, line_no, what, message):
    """An order: ASCII digits with an optional sign, like a literal of the
    expression grammar; ``int()`` alone also reads other scripts' digits
    and underscores.  Anything else is ``message`` at ``line_no``; a value
    that ``jets.as_order`` refuses as a ``what`` order, its error there."""
    if text.isascii() and "_" not in text:
        try:
            n = int(text)
        except ValueError:  # not digits, or past the digit limit
            pass
        else:
            return as_order(n, what, lambda m: ProblemFileError(m, line_no))
    raise ProblemFileError(message, line_no)


def flag(name):
    """The subcommand flag that gives task argument ``name``."""
    return "--lam" if name == "lambda" else f"--{name}"


def read_args(problem: ProblemFile, task: TaskDecl) -> dict:
    """The value of each argument of ``task``, read in ``TASK_ARGS`` order
    by the rule of the module docstring for its name; an absent optional
    argument without a default reads None.  A missing argument is cited
    at the task's line, or at its flag for a subcommand, whose task stands
    at no line."""
    args = task.args
    values = {}
    for name, required in TASK_ARGS[task.kind].items():
        text, line = args.get(name, (None, None))
        if text is None and required:
            raise ProblemFileError(
                f"task {task.task_id!r} needs argument {name!r}",
                flag(name) if task.line is None else task.line,
            )
        if name == "kind":
            text = "standard" if text is None else text
            if text not in _KIND_ARGS:
                raise ProblemFileError(
                    f"task {task.task_id!r}: unknown prolongation kind {text!r}; "
                    f"expected one of {', '.join(_KIND_ARGS)}", line
                )
            for other, names in _KIND_ARGS.items():
                for stray in names:
                    if stray in args and stray not in _KIND_ARGS[text]:
                        raise ProblemFileError(
                            f"task {task.task_id!r}: argument {stray!r} belongs "
                            f"to kind = {other}, not kind = {text}", args[stray][1]
                        )
            if text != "standard" and text not in args:  # lambda needs lambda, mu mu
                raise ProblemFileError(
                    f"kind={text} needs a '{text} =' argument",
                    flag(text) if task.line is None else task.line,
                )
            values[name] = text
        elif text is None:
            values[name] = {"order": problem.spec.order, "path-check": False}.get(name)
        elif name in _DECLARATIONS:
            values[name] = problem.named(name, text, line)
        elif name == "order":
            what = f"task {task.task_id!r}:"
            values[name] = _parse_order(
                text, line, what, f"{what} order must be an integer, got {text!r}")
        elif name == "path-check":
            values[name] = parse_flag(text, line)
        else:
            values[name] = _parse_expr(text, line)
    extra = set(args).difference(TASK_ARGS[task.kind])
    if extra:
        raise ProblemFileError(
            f"task {task.task_id!r} has unknown argument(s) {sorted(extra)}", task.line
        )
    return values


def _split_sections(text):
    sections = []
    current = None
    keys = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ProblemFileError("unterminated section header", line_no)
            header = line[1:-1].split()
            if not header:
                raise ProblemFileError("empty section header", line_no)
            current = (header, line_no, [])
            sections.append(current)
            keys = set()
            continue
        if current is None:
            raise ProblemFileError("content before the first section header", line_no)
        if "=" not in line:
            raise ProblemFileError(f"expected 'key = value', got {line!r}", line_no)
        key, _eq, value = line.partition("=")
        key = " ".join(key.split())
        if key in keys:
            raise ProblemFileError(f"duplicate key {key!r}", line_no)
        keys.add(key)
        current[2].append((key, value.strip(), line_no))
    return sections


def _build_jet(entries, line_no):
    values = {key: (value, ln) for key, value, ln in entries}
    for key, _value, ln in entries:
        if key not in ("independent", "dependent", "order"):
            raise ProblemFileError(
                f"unknown [jet] key {key!r}; expected independent, dependent and order",
                ln,
            )
    try:
        independent = tuple(
            n.strip() for n in values["independent"][0].replace(",", " ").split()
        )
        dependent = tuple(
            n.strip() for n in values["dependent"][0].replace(",", " ").split()
        )
        order_text, order_line = values["order"]
    except KeyError as missing:
        raise ProblemFileError(
            f"[jet] needs independent, dependent and order ({missing} missing)",
            line_no,
        )
    order = _parse_order(order_text, order_line, "jet", "order must be an integer")
    try:
        return JetSpec(independent, dependent, order)
    except JetsymError as err:
        raise ProblemFileError(str(err), line_no)


def _build_field(spec, entries, line_no):
    xi = dict.fromkeys(spec.independent, ZERO)
    phi = dict.fromkeys(spec.dependent, ZERO)
    generalized = False
    for key, value, ln in entries:
        parts = key.split()
        if parts == ["generalized"]:
            generalized = parse_flag(value, ln)
            continue
        if len(parts) != 2 or parts[0] not in ("xi", "phi"):
            raise ProblemFileError(
                f"field entries are 'xi <independent>' or 'phi <dependent>', got {key!r}",
                ln,
            )
        tag, name = parts
        target = xi if tag == "xi" else phi
        if name not in target:
            raise ProblemFileError(f"unknown variable {name!r} in field entry", ln)
        target[name] = _parse_expr(value, ln)
    return PointVectorField(spec, tuple(xi.values()), tuple(phi.values()), generalized)


def _build_mu(spec, entries, line_no):
    scalar_entries = {}
    matrix_entries = {}
    for key, value, ln in entries:
        parts = key.split()
        if len(parts) == 1:
            scalar_entries[parts[0]] = (_parse_expr(value, ln), ln)
        elif len(parts) == 3:
            matrix_entries[tuple(parts)] = (_parse_expr(value, ln), ln)
        else:
            raise ProblemFileError(
                "mu entries are '<independent> = expr' (scalar) or "
                f"'<independent> <dep> <dep> = expr' (matrix), got {key!r}",
                ln,
            )
    if scalar_entries and matrix_entries:
        raise ProblemFileError(
            "a mu section must be all scalar or all matrix entries", line_no
        )
    if scalar_entries:
        if spec.q != 1:
            raise ProblemFileError(
                "scalar mu entries need exactly one dependent variable", line_no
            )
        lambdas = []
        for n in spec.independent:
            e, _ln = scalar_entries.pop(n, (ZERO, None))
            lambdas.append(e)
        if scalar_entries:
            bad = next(iter(scalar_entries))
            raise ProblemFileError(f"unknown independent name {bad!r} in mu entry",
                                   scalar_entries[bad][1])
        return MuForm.scalar(spec, lambdas)
    mats = [
        [[ZERO] * spec.q for _ in range(spec.q)]
        for _ in range(spec.p)
    ]
    for (ind, row, col), (e, ln) in matrix_entries.items():
        if ind not in spec.independent:
            raise ProblemFileError(f"unknown independent name {ind!r}", ln)
        if row not in spec.dependent or col not in spec.dependent:
            raise ProblemFileError(f"unknown dependent name in {ind} {row} {col}", ln)
        mats[spec.independent.index(ind)][spec.dependent.index(row)][
            spec.dependent.index(col)
        ] = e
    return MuForm(spec, mats)


def _build_gauge(spec, entries, line_no):
    direct = [list(row) for row in mat_identity(spec.q)]
    inverse = [list(row) for row in mat_identity(spec.q)]
    has_inverse = False
    for key, value, ln in entries:
        parts = key.split()
        target = direct
        if parts and parts[0] == "inverse":
            has_inverse = True
            target = inverse
            parts = parts[1:]
        if len(parts) != 2:
            raise ProblemFileError(
                f"gauge entries are '<dep> <dep> = expr', got {key!r}", ln
            )
        row, col = parts
        if row not in spec.dependent or col not in spec.dependent:
            raise ProblemFileError(f"unknown dependent name in {key!r}", ln)
        target[spec.dependent.index(row)][spec.dependent.index(col)] = _parse_expr(
            value, ln
        )
    return GaugeFunction(spec, direct, inverse if has_inverse else None)


def _build_equation(spec, entries, line_no):
    mapping = {key: _parse_expr(value, ln) for key, value, ln in entries}
    return DifferentialEquation.from_strings(spec, mapping)


# each declaration kind, with its noun in messages and its builder; a
# builder's own errors name their entry's line, and load_problem cites any
# other error of the jet layer, such as a constructor's, at the section
_DECLARATIONS = {
    "field": ("field", _build_field),
    "mu": ("mu form", _build_mu),
    "gauge": ("gauge function", _build_gauge),
    "equation": ("equation", _build_equation),
}


def load_problem(text: str) -> ProblemFile:
    """Parse and resolve a problem file; all names are validated here."""
    sections = _split_sections(text)
    jets = [s for s in sections if s[0][0] == "jet"]
    if len(jets) != 1:
        raise ProblemFileError("need exactly one [jet] section",
                               jets[1][1] if len(jets) > 1 else None)
    if len(jets[0][0]) != 1:
        raise ProblemFileError("[jet] takes no name", jets[0][1])
    spec = _build_jet(jets[0][2], jets[0][1])

    problem = ProblemFile(spec)
    counter = 0
    task_ids = set()
    for header, line_no, entries in sections:
        kind = header[0]
        if kind == "jet":
            continue
        if kind in _DECLARATIONS:
            if len(header) != 2:
                raise ProblemFileError(f"[{kind}] needs exactly one name", line_no)
            key = (kind, header[1])
            if key in problem.declared:
                raise ProblemFileError(f"duplicate {kind} name {header[1]!r}", line_no)
            try:
                problem.declared[key] = _DECLARATIONS[kind][1](spec, entries, line_no)
            except ProblemFileError:
                raise
            except JetsymError as err:
                raise ProblemFileError(str(err), line_no)
            continue
        if kind == "task":
            if len(header) < 2 or header[1] not in TASK_ARGS:
                raise ProblemFileError(
                    f"unknown task kind {' '.join(header[1:2]) or '?'!r}; "
                    f"expected one of {', '.join(TASK_ARGS)}",
                    line_no,
                )
            if len(header) > 3:
                raise ProblemFileError("[task] takes a kind and at most one id", line_no)
            counter += 1
            task_id = header[2] if len(header) > 2 else f"task-{counter}"
            if task_id in task_ids:
                raise ProblemFileError(f"duplicate task id {task_id!r}", line_no)
            task_ids.add(task_id)
            args = {}
            for key, value, ln in entries:
                if key == "id":
                    raise ProblemFileError(
                        "a task is named in its header, [task KIND ID], "
                        "not by an 'id' line", ln
                    )
                args[key] = (value, ln)
            problem.tasks.append(TaskDecl(header[1], task_id, args, line_no))
            continue
        raise ProblemFileError(f"unknown section kind {kind!r}", line_no)
    return problem
