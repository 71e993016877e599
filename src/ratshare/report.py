"""Structured text reports.

One document per command: a schema line, a [config] echo, one
[results.*] section, and a [timing] section.  Keys are dotted paths,
values render deterministically (floats at 12 significant digits, and
exact Fractions like the float nearest them), so equal configurations
produce byte-identical result sections; only [timing] varies between
runs.  A reader may split a report with `str.splitlines`, which breaks
lines at U+000B, U+000C, U+001C-U+001E, U+0085, U+2028 and U+2029 as
well as at LF and CR, so text echoed into one must be `one_line`.
"""

from __future__ import annotations

from fractions import Fraction

from .strategies import float_view

SCHEMA = "ratshare.report.v1"
ARTIFACT_VERSION = "0.1.0"


def one_line(text: str) -> bool:
    """Whether `text` reads as at most one line under `str.splitlines`."""
    return text.splitlines() in ([], [text])


def fmt_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        value = float_view(value)
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
