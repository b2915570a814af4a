"""Pure-algorithm kernels: the functional halves of the benchmark accelerators.

Everything here is hardware-independent and synchronous — implemented from
scratch so the accelerator models in :mod:`repro.accel` compute *real*
results that tests can verify against reference implementations.  The
exceptions are MD5 and the Bitcoin miner's SHA-256, which are
:mod:`hashlib`'s: their jobs hash a whole 4 KB chunk or 80-byte header in
one call, so no hash state outlives a call for a preempted job to save.
SHA-512 stays here because a preempted SHA job saves its chaining words.

Every public name loads its submodule on first use (PEP 562): an
accelerator job imports its kernel when it first computes, so a
timing-only run loads none of them.
"""

from repro import lazy_exports

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
    "DecodeError": "repro.kernels.reed_solomon",
    "ReedSolomon": "repro.kernels.reed_solomon",
    "Sha512": "repro.kernels.sha2",
    "sha512_bytes": "repro.kernels.sha2",
    "Alignment": "repro.kernels.smith_waterman",
    "ScoringScheme": "repro.kernels.smith_waterman",
    "align": "repro.kernels.smith_waterman",
    "best_score": "repro.kernels.smith_waterman",
    "score_matrix": "repro.kernels.smith_waterman",
}

__all__ = list(_LAZY)

__getattr__ = lazy_exports(globals(), _LAZY)
