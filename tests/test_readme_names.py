"""README's name lists match the package.

The "Library" section lists, bullet by bullet, the names the package root
exports, and names the value types: both must be exactly what the code
has, so removing or adding an export or a record type without the README
fails here.
"""

import importlib
import pkgutil
import re
from pathlib import Path
from types import ModuleType

import vla_roofline
from vla_roofline.record import Record

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_section() -> str:
    text = README.read_text(encoding="utf-8")
    return text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def _export_bullets() -> dict[str, list[str]]:
    """Each top-level bullet of the export list, by its label: the
    backquoted names of its first sentence, outside parentheses."""
    section = _library_section()
    listing = section.split("import anything else\nfrom its module:\n", 1)[1]
    bullets = {}
    for bullet in re.findall(r"^- (\w[\w ]*): (.*?)(?=^- |^\S|\Z)", listing,
                             re.MULTILINE | re.DOTALL):
        label, body = bullet
        body = " ".join(body.split())
        while re.search(r"\([^()]*\)", body):
            body = re.sub(r"\s*\([^()]*\)", "", body)
        first_sentence = body.split(". ", 1)[0]
        bullets[label] = re.findall(r"`(\w+)`", first_sentence)
    return bullets


def test_library_bullets_list_exactly_the_root_exports():
    bullets = _export_bullets()
    assert set(bullets) == {"presets", "workloads", "roofline",
                            "network", "scenarios"}
    listed = [name for names in bullets.values() for name in names]
    assert len(listed) == len(set(listed)), listed
    exported = {name for name, value in vars(vla_roofline).items()
                if not name.startswith("_")
                and not isinstance(value, ModuleType)}
    assert set(listed) == exported


def _record_types() -> set[str]:
    for module in pkgutil.iter_modules(vla_roofline.__path__):
        if module.name != "__main__":
            importlib.import_module(f"vla_roofline.{module.name}")
    found, pending = set(), [Record]
    while pending:
        for cls in pending.pop().__subclasses__():
            if cls.__module__.startswith("vla_roofline."):
                found.add(cls.__qualname__)
            pending.append(cls)
    return found


def test_value_type_list_names_every_record_type():
    listing = re.search(r"^The value types \(([^)]*)\)", _library_section(),
                        re.MULTILINE)
    assert listing is not None
    named = re.findall(r"`(\w+)`", listing.group(1))
    assert len(named) == len(set(named)), named
    assert set(named) == _record_types()
