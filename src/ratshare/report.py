"""Structured text reports.

One document per command: a schema line, a [config] echo, one
[results.*] section, and a [timing] section.  Keys are dotted paths,
values render deterministically (floats at 12 significant digits), so
equal configurations produce byte-identical result sections; only
[timing] varies between runs.
"""

from __future__ import annotations

SCHEMA = "ratshare.report.v1"
ARTIFACT_VERSION = "0.1.0"


def fmt_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


class Section:
    def __init__(self, name: str):
        self.name = name
        self.entries: list[tuple[str, str]] = []

    def add(self, key: str, value) -> "Section":
        self.entries.append((key, fmt_value(value)))
        return self

    def render(self) -> str:
        lines = [f"[{self.name}]"]
        lines.extend(f"{key} = {value}" for key, value in self.entries)
        return "\n".join(lines)


class Report:
    def __init__(self, command: str):
        self.command = command
        self.sections: list[Section] = []

    def section(self, name: str) -> Section:
        section = Section(name)
        self.sections.append(section)
        return section

    def render(self) -> str:
        return _render(self.sections)

    def result_text(self) -> str:
        """`render()` without [timing]; byte-identical for equal configs."""
        return _render([s for s in self.sections if s.name != "timing"])


def _render(sections: list[Section]) -> str:
    body = "\n\n".join(section.render() for section in sections)
    return f"schema = {SCHEMA}\nartifact = ratshare {ARTIFACT_VERSION}\n\n{body}\n"
