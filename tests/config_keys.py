"""The config document's keys, read from the code.

The tests that generate or walk config documents take their keys from
here, so a key added to or removed from `config.CONFIG_KEYS` or a
section's fields reaches each of them.
"""

import dataclasses

from uowsim.config import CONFIG_KEYS, SimulationConfig


def field_names(cls) -> list[str]:
    return [spec.name for spec in dataclasses.fields(cls)]


# Each nested section of the document, by its key: the SimulationConfig
# fields whose rule is a dataclass.
SECTIONS = {
    spec.name: spec.metadata["rule"]
    for spec in dataclasses.fields(SimulationConfig)
    if dataclasses.is_dataclass(spec.metadata["rule"])
}
# Each section's keys: its class's fields.
NESTED = {name: field_names(cls) for name, cls in SECTIONS.items()}
# The document's keys that hold a value themselves, ``water`` among them.
TOP_LEVEL = sorted(CONFIG_KEYS - SECTIONS.keys())
# Every key that holds a value, a nested one written ``section.field``.
LEAF_KEYS = TOP_LEVEL + [f"{name}.{key}" for name, keys in NESTED.items() for key in keys]
