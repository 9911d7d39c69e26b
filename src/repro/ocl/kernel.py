"""cl_kernel objects and per-device launch configurations.

Besides the stock OpenCL surface (argument setting, NDRange launches), this
implements the paper's proposed ``clSetKernelWorkGroupInfo`` (Section IV.C):
a kernel can carry one launch configuration *per device*, set ahead of time,
so the scheduler can launch — and profile — the kernel with the right
configuration on whichever device it dynamically picks.  Configurations
passed to ``clEnqueueNDRangeKernel`` are ignored for devices that have a
pre-set configuration, exactly as the paper specifies.

Timing comes from a cost model.  The default model is built from the
``// @multicl`` source annotations (flops/bytes per work item, divergence,
irregularity, per-device-kind efficiency); workloads may override it with
``set_cost_model`` for costs that are not per-item linear.

Each kernel owns one pricing table, (device, effective configuration) ->
(:class:`KernelCost`, seconds), read by every call site that prices a
launch: the service arbiter's backlog estimate, the issue path and the
kernel profiler.  A distinct launch is therefore priced once per device
for as long as the kernel lives.  Custom cost models may read the
launch's argument snapshot, so their prices are computed per launch and
never shared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.hardware.cost import KernelCost, kernel_time
from repro.hardware.specs import DeviceKind, DeviceSpec
from repro.ocl.errors import (
    InvalidKernelArgs,
    InvalidValue,
    InvalidWorkGroupSize,
)
from repro.ocl.memory import Buffer
from repro.ocl.source import KernelSourceInfo

if TYPE_CHECKING:  # pragma: no cover
    from repro.ocl.program import Program

__all__ = ["WorkGroupConfig", "Kernel", "CostModel", "HostFunction"]

#: Signature of a kernel cost model: (device spec, launch config, args) -> cost.
CostModel = Callable[[DeviceSpec, "WorkGroupConfig", Dict[int, Any]], KernelCost]

#: Signature of a functional payload: receives {arg_name: value} where buffer
#: arguments are delivered as their numpy arrays.
HostFunction = Callable[[Dict[str, Any]], None]

_EFF_KEYS = {
    "cpu_eff": DeviceKind.CPU,
    "gpu_eff": DeviceKind.GPU,
    "accel_eff": DeviceKind.ACCELERATOR,
}


#: (global_size, local_size) -> validated WorkGroupConfig (frozen, shared).
_config_memo: Dict[Any, "WorkGroupConfig"] = {}

#: Entries one kernel's pricing table may hold before it is cleared.  Launch
#: loops reuse a handful of configurations; a kernel launched with ever-new
#: sizes re-prices instead of growing without bound (re-pricing reproduces
#: every entry exactly).
_PRICE_TABLE_MAX = 1024


def _prod(xs: Sequence[int]) -> int:
    out = 1
    for x in xs:
        out *= int(x)
    return out


@dataclass(frozen=True)
class WorkGroupConfig:
    """An NDRange launch configuration."""

    global_size: Tuple[int, ...]
    local_size: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not 1 <= len(self.global_size) <= 3:
            raise InvalidWorkGroupSize(
                f"global_size must have 1-3 dimensions, got {self.global_size}"
            )
        if len(self.local_size) != len(self.global_size):
            raise InvalidWorkGroupSize(
                f"local_size {self.local_size} dimensionality does not match "
                f"global_size {self.global_size}"
            )
        if any(g <= 0 for g in self.global_size) or any(
            l <= 0 for l in self.local_size
        ):
            raise InvalidWorkGroupSize("sizes must be positive")

    @property
    def work_items(self) -> int:
        return _prod(self.global_size)

    @property
    def workgroup_size(self) -> int:
        return _prod(self.local_size)

    @property
    def num_workgroups(self) -> int:
        return _prod(
            math.ceil(g / l) for g, l in zip(self.global_size, self.local_size)
        )

    @staticmethod
    def normalize(
        global_size: Sequence[int],
        local_size: Optional[Sequence[int]] = None,
    ) -> "WorkGroupConfig":
        gs = tuple(int(g) for g in global_size)
        if local_size is None:
            # OpenCL lets the implementation pick; we pick 64 linearised.
            ls: Tuple[int, ...] = (min(64, gs[0]),) + (1,) * (len(gs) - 1)
        else:
            ls = tuple(int(l) for l in local_size)
        # Memoised: enqueue loops launch the same configuration over and
        # over, and __post_init__ validation is pure in (gs, ls).
        cached = _config_memo.get((gs, ls))
        if cached is not None:
            return cached
        config = WorkGroupConfig(gs, ls)
        if len(_config_memo) > 256:
            _config_memo.clear()
        _config_memo[(gs, ls)] = config
        return config


class Kernel:
    """A kernel object bound to a built program."""

    def __init__(self, program: "Program", info: KernelSourceInfo) -> None:
        self.program = program
        self.info = info
        self.name = info.name
        self.args: Dict[int, Any] = {}
        #: device name -> WorkGroupConfig, set via clSetKernelWorkGroupInfo
        self.device_configs: Dict[str, WorkGroupConfig] = {}
        self._cost_model: Optional[CostModel] = None
        self.host_fn: Optional[HostFunction] = None
        #: Pricing table for the annotation cost model: (device name,
        #: effective config) -> (spec, cost, seconds).  Pure in its key, and
        #: KernelCost is frozen, so every launch shares the entries.
        self._prices: Dict[
            Tuple[str, WorkGroupConfig], Tuple[DeviceSpec, KernelCost, float]
        ] = {}

    # ------------------------------------------------------------------
    # Standard OpenCL surface
    # ------------------------------------------------------------------
    def set_arg(self, index: int, value: Any) -> None:
        """clSetKernelArg."""
        if index < 0 or index >= len(self.info.args):
            raise InvalidKernelArgs(
                f"kernel {self.name!r} has {len(self.info.args)} args, "
                f"index {index} invalid"
            )
        expected_buffer = self.info.args[index].is_buffer
        got_buffer = isinstance(value, Buffer)
        if expected_buffer and not got_buffer:
            raise InvalidKernelArgs(
                f"kernel {self.name!r} arg {index} "
                f"({self.info.args[index].declaration!r}) expects a Buffer"
            )
        if not expected_buffer and got_buffer:
            raise InvalidKernelArgs(
                f"kernel {self.name!r} arg {index} "
                f"({self.info.args[index].declaration!r}) expects a scalar"
            )
        self.args[index] = value

    def check_args_set(self) -> None:
        # set_arg validates 0 <= index < len(info.args), so a full dict
        # means every argument is set — the common (per-enqueue) case.
        if len(self.args) == len(self.info.args):
            return
        missing = [
            i for i in range(len(self.info.args)) if i not in self.args
        ]
        if missing:
            raise InvalidKernelArgs(
                f"kernel {self.name!r}: arguments {missing} not set"
            )

    def buffer_args(self) -> Dict[int, Buffer]:
        """Index -> Buffer for all buffer-typed arguments currently set."""
        return {i: v for i, v in self.args.items() if isinstance(v, Buffer)}

    def written_buffer_args(self) -> Dict[int, Buffer]:
        """Buffer args the kernel writes (``writes=`` annotation, else all)."""
        bufs = self.buffer_args()
        if not self.info.writes:
            return bufs
        return {i: b for i, b in bufs.items() if i in self.info.writes}

    # ------------------------------------------------------------------
    # Proposed extension: clSetKernelWorkGroupInfo (paper Section IV.C)
    # ------------------------------------------------------------------
    def set_work_group_info(
        self,
        device_name: str,
        global_size: Sequence[int],
        local_size: Optional[Sequence[int]] = None,
    ) -> None:
        """Pre-set the launch configuration to use on ``device_name``.

        May be invoked at any time before the launch.  Once set, the launch
        configuration passed to ``clEnqueueNDRangeKernel`` is ignored for
        this device.
        """
        self.device_configs[device_name] = WorkGroupConfig.normalize(
            global_size, local_size
        )
        self._reprice_pending()

    def effective_config(
        self, device_name: str, launch: WorkGroupConfig
    ) -> WorkGroupConfig:
        """Configuration actually used on ``device_name``."""
        return self.device_configs.get(device_name, launch)

    def sub_range_config(
        self,
        device_name: str,
        launch: WorkGroupConfig,
        lo: int,
        hi: int,
    ) -> WorkGroupConfig:
        """Launch configuration for the ``[lo, hi)`` slice of dimension 0.

        Used by multi-device work-splitting: the sub-range keeps the full
        extent in dimensions 1+, inherits the device's effective local size
        (per-device override included), and clips it to the slice so tiny
        shares remain valid configurations.
        """
        if not 0 <= lo < hi <= launch.global_size[0]:
            raise InvalidValue(
                f"kernel {self.name!r}: sub-range [{lo}:{hi}) outside "
                f"global dimension 0 of {launch.global_size}"
            )
        base = self.effective_config(device_name, launch)
        global_size = (hi - lo,) + tuple(launch.global_size[1:])
        local = tuple(
            base.local_size[i] if i < len(base.local_size) else 1
            for i in range(len(global_size))
        )
        local = tuple(min(l, g) for l, g in zip(local, global_size))
        return WorkGroupConfig.normalize(global_size, local)

    # ------------------------------------------------------------------
    # Cost and functional payload
    # ------------------------------------------------------------------
    def set_cost_model(self, fn: CostModel) -> None:
        """Override the annotation-derived cost model."""
        self._cost_model = fn
        self._prices.clear()
        self._reprice_pending()

    def _reprice_pending(self) -> None:
        """Deferred launches of this kernel may now price differently: mark
        every queue's pending-work sums stale."""
        for q in self.program.context.queues:
            q.reprice_pending()

    def set_host_function(self, fn: HostFunction) -> None:
        """Attach a functional numpy payload executed when the kernel runs."""
        self.host_fn = fn

    def launch_price(
        self,
        spec: DeviceSpec,
        launch: WorkGroupConfig,
        args: Optional[Dict[int, Any]] = None,
    ) -> Tuple[KernelCost, float]:
        """``(cost, seconds)`` of launching this kernel on ``spec``.

        Honours the per-device configuration override before consulting the
        pricing table.  ``args`` is the argument snapshot the launch was
        enqueued with (default: the current arguments); only custom cost
        models read it.
        """
        return self.config_price(
            spec, self.effective_config(spec.name, launch), args
        )

    def config_price(
        self,
        spec: DeviceSpec,
        config: WorkGroupConfig,
        args: Optional[Dict[int, Any]] = None,
    ) -> Tuple[KernelCost, float]:
        """``(cost, seconds)`` for an explicit configuration, bypassing the
        per-device override (work-splitting prices sub-ranges that already
        honoured it)."""
        if self._cost_model is not None:
            cost = self._cost_model(spec, config, self.args if args is None else args)
            return cost, kernel_time(spec, cost)
        key = (spec.name, config)
        entry = self._prices.get(key)
        if entry is None or entry[0] is not spec:
            if len(self._prices) >= _PRICE_TABLE_MAX:
                self._prices.clear()
            cost = self._annotation_cost(config)
            entry = self._prices[key] = (spec, cost, kernel_time(spec, cost))
        return entry[1], entry[2]

    def _annotation_cost(self, config: WorkGroupConfig) -> KernelCost:
        a = self.info.annotations
        if "flops_per_item" not in a and "bytes_per_item" not in a:
            raise InvalidValue(
                f"kernel {self.name!r} has neither @multicl annotations nor a "
                f"cost model; cannot estimate launch cost"
            )
        items = config.work_items
        eff = {
            kind: a[key] for key, kind in _EFF_KEYS.items() if key in a
        }
        return KernelCost(
            flops=a.get("flops_per_item", 0.0) * items,
            bytes=a.get("bytes_per_item", 0.0) * items,
            work_items=items,
            workgroup_size=config.workgroup_size,
            divergence=a.get("divergence", 0.0),
            irregularity=a.get("irregularity", 0.0),
            efficiency=eff,
        )

    def run_host_function(self) -> None:
        """Execute the functional payload (if any) against current args."""
        if self.host_fn is None:
            return
        named: Dict[str, Any] = {}
        for i, arg in enumerate(self.info.args):
            value = self.args.get(i)
            if isinstance(value, Buffer):
                named[arg.name] = value.array
            else:
                named[arg.name] = value
        self.host_fn(named)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Kernel({self.name!r}, args_set={sorted(self.args)})"
