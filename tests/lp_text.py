"""Independent reader of the LP text that ``apc export`` writes (test-side only).

``parse_lp`` returns the objective as ``(coeff, (a, b))`` terms, each
constraint as ``(name, terms, op, rhs)`` with op ``"="`` or ``"<="``, and the
``Binary`` section as the list of edges ``(a, b)`` in file order.
"""

import re


def _read_terms(expr):
    terms = []
    for raw in expr.split("+"):
        raw = raw.strip()
        if not raw:
            continue
        match = re.fullmatch(r"(?:(\d+)\s+)?x_(\d+)_(\d+)", raw)
        assert match, raw
        coeff = int(match.group(1)) if match.group(1) else 1
        terms.append((coeff, (int(match.group(2)), int(match.group(3)))))
    return terms


def _glue(lines):
    # continuation lines carry no ':'; fold them into their constraint
    items = []
    for line in lines:
        if ":" in line:
            items.append(line)
        else:
            items[-1] += " " + line.strip()
    return items


def parse_lp(text):
    sections = {}
    current = None
    for line in text.splitlines():
        if line in ("Minimize", "Subject To", "Binary", "End"):
            current = line
            sections[current] = []
        elif current is not None:
            sections[current].append(line)

    objective = _read_terms(" ".join(sections["Minimize"]).split(":", 1)[1])
    constraints = []
    for item in _glue(sections["Subject To"]):
        name, body = item.split(":", 1)
        if "<=" in body:
            expr, rhs = body.split("<=")
            op = "<="
        else:
            expr, rhs = body.split("=")
            op = "="
        constraints.append((name.strip(), _read_terms(expr), op, int(rhs)))
    binaries = []
    for line in sections["Binary"]:
        match = re.fullmatch(r"x_(\d+)_(\d+)", line.strip())
        assert match, line
        binaries.append((int(match.group(1)), int(match.group(2))))
    return objective, constraints, binaries
