"""Structured reports: a line-oriented `key = value` document.

Keys are dotted paths; values are canonical polynomial strings, numbers,
or verdicts (holds / fails / skipped(reason)).  Machine output is sorted
by key and round-trips through :func:`parse_report`.
"""

from __future__ import annotations

from jonq.errors import ParseError


def verdict(ok):
    return "holds" if ok else "fails"


def skipped(reason):
    reason = " ".join(str(reason).split())
    return f"skipped({reason})"


class Report:
    def __init__(self, command=""):
        self.data = {}
        if command:
            self.set("command", command)

    def set(self, key, value):
        if isinstance(value, bool):
            value = verdict(value)
        text = " ".join(str(value).split())
        if not text:
            text = "-"
        self.data[str(key)] = text
        return self

    def set_verdict(self, key, ok):
        self.set(key, verdict(ok))

    def set_skipped(self, key, reason):
        self.set(key, skipped(reason))

    def has_failure(self):
        return any(v == "fails" or v.startswith("fails") for v in self.data.values())

    def exit_code(self):
        return 1 if self.has_failure() else 0

    def render_machine(self):
        lines = [f"{k} = {self.data[k]}" for k in sorted(self.data)]
        return "\n".join(lines) + "\n"

    def render_human(self):
        groups = {}
        for key in sorted(self.data):
            head = key.split(".", 1)[0]
            groups.setdefault(head, []).append(key)
        out = []
        for head in sorted(groups):
            out.append(f"[{head}]")
            for key in groups[head]:
                out.append(f"  {key} = {self.data[key]}")
        return "\n".join(out) + "\n"


def parse_report(text):
    """Parse machine output back into a dict (the round-trip contract)."""
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if " = " not in line:
            raise ParseError("expected 'key = value'", lineno, 1)
        key, value = line.split(" = ", 1)
        out[key.strip()] = value.strip()
    return out
