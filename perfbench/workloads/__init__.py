"""The four workloads, by name.  Each module has NAME and build(ctx, round_index) -> list[Job]."""

from . import census, cli, homology, words

WORKLOADS = {module.NAME: module for module in (census, words, homology, cli)}
