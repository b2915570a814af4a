"""Accelerator models: Table 1's fourteen benchmarks plus base machinery.

Every public name loads its submodule on first use (PEP 562): a process
that builds one job class loads neither the catalog nor the host-centric
SSSP runner, and each job imports its functional kernel on its first
``transform``.
"""

from repro import lazy_exports

#: Public name -> the submodule that defines it, imported on first access.
_LAZY = {
    "AES_PROFILE": "repro.accel.aes",
    "AesJob": "repro.accel.aes",
    "CMD_PREEMPT": "repro.accel.base",
    "CMD_RESUME": "repro.accel.base",
    "CMD_START": "repro.accel.base",
    "CTRL_CMD": "repro.accel.base",
    "CTRL_STATE_ADDR": "repro.accel.base",
    "CTRL_STATE_SIZE": "repro.accel.base",
    "CTRL_STATUS": "repro.accel.base",
    "STATUS_DONE": "repro.accel.base",
    "STATUS_IDLE": "repro.accel.base",
    "STATUS_RUNNING": "repro.accel.base",
    "STATUS_SAVED": "repro.accel.base",
    "AcceleratorJob": "repro.accel.base",
    "AcceleratorProfile": "repro.accel.base",
    "ExecutionContext": "repro.accel.base",
    "BTC_PROFILE": "repro.accel.btc",
    "BtcJob": "repro.accel.btc",
    "GAU_PROFILE": "repro.accel.filters",
    "GRS_PROFILE": "repro.accel.filters",
    "SBL_PROFILE": "repro.accel.filters",
    "GauJob": "repro.accel.filters",
    "GrsJob": "repro.accel.filters",
    "SblJob": "repro.accel.filters",
    "FIR_PROFILE": "repro.accel.fir",
    "FirJob": "repro.accel.fir",
    "GRN_PROFILE": "repro.accel.grn",
    "GrnJob": "repro.accel.grn",
    "HostCentricResult": "repro.accel.hostcentric",
    "HostCentricSsspRunner": "repro.accel.hostcentric",
    "LL_PROFILE": "repro.accel.linkedlist",
    "LinkedListJob": "repro.accel.linkedlist",
    "build_list_image": "repro.accel.linkedlist",
    "MD5_PROFILE": "repro.accel.md5",
    "Md5Job": "repro.accel.md5",
    "MB_PROFILE": "repro.accel.membench",
    "MODE_MIXED": "repro.accel.membench",
    "MODE_READ": "repro.accel.membench",
    "MODE_WRITE": "repro.accel.membench",
    "MemBenchJob": "repro.accel.membench",
    "CATALOG": "repro.accel.registry",
    "REAL_WORLD": "repro.accel.registry",
    "STREAMING": "repro.accel.registry",
    "make_job": "repro.accel.registry",
    "profile_of": "repro.accel.registry",
    "table1_rows": "repro.accel.registry",
    "RSD_PROFILE": "repro.accel.rsd",
    "RsdJob": "repro.accel.rsd",
    "SHA_PROFILE": "repro.accel.sha",
    "Sha512Job": "repro.accel.sha",
    "SSSP_PROFILE": "repro.accel.sssp",
    "SsspJob": "repro.accel.sssp",
    "REG_DST": "repro.accel.streaming",
    "REG_LEN": "repro.accel.streaming",
    "REG_PARAM0": "repro.accel.streaming",
    "REG_PARAM1": "repro.accel.streaming",
    "REG_SRC": "repro.accel.streaming",
    "StreamingJob": "repro.accel.streaming",
    "SW_PROFILE": "repro.accel.sw",
    "SwJob": "repro.accel.sw",
}

__all__ = list(_LAZY)

__getattr__ = lazy_exports(globals(), _LAZY)
