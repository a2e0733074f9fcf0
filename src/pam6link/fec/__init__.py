from .ldpc import (
    BaseGraph,
    LdpcCode,
    ldpc_build,
    ldpc_decode,
    ldpc_encode,
    ldpc_syndrome,
    load_basegraph,
    read_alist,
    write_alist,
)
from .scramble import adapt_llrs, scramble

__all__ = [
    "BaseGraph", "LdpcCode", "ldpc_build", "ldpc_decode",
    "ldpc_encode", "ldpc_syndrome", "load_basegraph", "read_alist",
    "write_alist", "adapt_llrs", "scramble",
]
