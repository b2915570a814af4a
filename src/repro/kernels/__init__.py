"""Pure-algorithm kernels: the functional halves of the benchmark accelerators.

Everything here is hardware-independent and synchronous — implemented from
scratch so the accelerator models in :mod:`repro.accel` compute *real*
results that tests can verify against reference implementations.

Every public name loads its submodule on first use (PEP 562): an
accelerator job imports its kernel when it first computes, so a
timing-only run loads none of them.
"""

import importlib

#: Public name -> the submodule that defines it, imported on first access.
_LAZY = {
    "encrypt_block": "repro.kernels.aes128",
    "encrypt_ecb": "repro.kernels.aes128",
    "expand_key": "repro.kernels.aes128",
    "BlockHeader": "repro.kernels.bitcoin",
    "easy_target": "repro.kernels.bitcoin",
    "hash_value": "repro.kernels.bitcoin",
    "meets_target": "repro.kernels.bitcoin",
    "mine": "repro.kernels.bitcoin",
    "GaussianGenerator": "repro.kernels.dsp",
    "Xorshift64Star": "repro.kernels.dsp",
    "fir_filter": "repro.kernels.dsp",
    "lowpass_taps": "repro.kernels.dsp",
    "CsrGraph": "repro.kernels.graph",
    "random_graph": "repro.kernels.graph",
    "sssp_bellman_ford": "repro.kernels.graph",
    "sssp_dijkstra": "repro.kernels.graph",
    "gaussian_blur": "repro.kernels.image",
    "grayscale": "repro.kernels.image",
    "sobel": "repro.kernels.image",
    "Md5": "repro.kernels.md5",
    "md5_bytes": "repro.kernels.md5",
    "DecodeError": "repro.kernels.reed_solomon",
    "ReedSolomon": "repro.kernels.reed_solomon",
    "Sha256": "repro.kernels.sha2",
    "Sha512": "repro.kernels.sha2",
    "double_sha256": "repro.kernels.sha2",
    "sha256_bytes": "repro.kernels.sha2",
    "sha512_bytes": "repro.kernels.sha2",
    "Alignment": "repro.kernels.smith_waterman",
    "ScoringScheme": "repro.kernels.smith_waterman",
    "align": "repro.kernels.smith_waterman",
    "best_score": "repro.kernels.smith_waterman",
    "score_matrix": "repro.kernels.smith_waterman",
}

__all__ = [
    "Alignment",
    "BlockHeader",
    "CsrGraph",
    "DecodeError",
    "GaussianGenerator",
    "Md5",
    "ReedSolomon",
    "ScoringScheme",
    "Sha256",
    "Sha512",
    "Xorshift64Star",
    "align",
    "best_score",
    "double_sha256",
    "easy_target",
    "encrypt_block",
    "encrypt_ecb",
    "expand_key",
    "fir_filter",
    "gaussian_blur",
    "grayscale",
    "hash_value",
    "lowpass_taps",
    "md5_bytes",
    "meets_target",
    "mine",
    "random_graph",
    "score_matrix",
    "sha256_bytes",
    "sha512_bytes",
    "sobel",
    "sssp_bellman_ford",
    "sssp_dijkstra",
]


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(module), name)
    return value
