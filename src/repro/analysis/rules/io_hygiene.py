"""I/O format hygiene rule.

``io-format-hygiene``: only the ``repro.io`` package may touch the
``struct`` module.  Every byte that crosses a state-movement boundary —
the migration wire, the PRAM encoding parsed across the kexec, UISR
documents, plan blobs — must go through the framed, CRC-checked codec
layer; a stray ``struct.pack`` elsewhere is an unversioned, unchecksummed
byte format waiting to corrupt a guest silently.  The hypervisor
formats pack through :class:`repro.io.frames.Packer`/``Unpacker``, so no
module outside ``io/`` needs an allowance.
"""

import ast
from typing import Iterable

from repro.analysis.engine import Rule, register_rule
from repro.analysis.findings import Finding
from repro.analysis.project import Project, SourceModule, dotted_name
from repro.analysis.rules.hygiene import _import_aliases

#: the one layer allowed to use the struct module
IO_SCOPE = ("io/",)


@register_rule
class IOFormatHygieneRule(Rule):
    name = "io-format-hygiene"
    description = (
        "struct.pack/struct.unpack only inside repro/io/; every other "
        "byte format must go through the framed codec layer"
    )

    def check(self, project: Project) -> Iterable[Finding]:
        for module in project.modules:
            if module.path.startswith(IO_SCOPE):
                continue
            yield from self._check_module(module)

    def _check_module(self, module: SourceModule) -> Iterable[Finding]:
        aliases = _import_aliases(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            if dotted is None:
                continue
            head, _, tail = dotted.partition(".")
            resolved = aliases.get(head)
            if resolved is not None:
                dotted = resolved + ("." + tail if tail else "")
            if dotted == "struct" or dotted.startswith("struct."):
                yield self.finding(
                    module.path, node.lineno,
                    f"{dotted}() outside repro/io/ hand-rolls a byte "
                    f"format; use the repro.io frame/packing layer so the "
                    f"bytes stay versioned and CRC-checked",
                )
