"""Kernel objects: args, per-device configs, cost models."""

import numpy as np
import pytest

from repro.hardware.cost import KernelCost
from repro.hardware.specs import DeviceKind
from repro.ocl.errors import (
    InvalidKernelArgs,
    InvalidValue,
    InvalidWorkGroupSize,
)
from repro.ocl.kernel import WorkGroupConfig

SRC = """
// @multicl flops_per_item=100 bytes_per_item=16 divergence=0.2 irregularity=0.1 cpu_eff=0.9 gpu_eff=0.3 writes=1
__kernel void k(__global float* in, __global float* out, int n) { }

__kernel void bare(__global float* buf, int n) { }
"""


@pytest.fixture
def program(manual_context):
    return manual_context.create_program(SRC).build()


@pytest.fixture
def kernel(program):
    return program.create_kernel("k")


def test_set_arg_buffer_and_scalar(kernel, manual_context):
    buf = manual_context.create_buffer(64)
    kernel.set_arg(0, buf)
    kernel.set_arg(2, 16)
    assert kernel.args[0] is buf


def test_set_arg_index_out_of_range(kernel):
    with pytest.raises(InvalidKernelArgs):
        kernel.set_arg(3, 1)
    with pytest.raises(InvalidKernelArgs):
        kernel.set_arg(-1, 1)


def test_scalar_where_buffer_expected(kernel):
    with pytest.raises(InvalidKernelArgs):
        kernel.set_arg(0, 5)


def test_buffer_where_scalar_expected(kernel, manual_context):
    buf = manual_context.create_buffer(64)
    with pytest.raises(InvalidKernelArgs):
        kernel.set_arg(2, buf)


def test_check_args_set_reports_missing(kernel, manual_context):
    kernel.set_arg(0, manual_context.create_buffer(64))
    with pytest.raises(InvalidKernelArgs) as exc:
        kernel.check_args_set()
    assert "[1, 2]" in str(exc.value)


def test_written_buffer_args_uses_annotation(kernel, manual_context):
    a = manual_context.create_buffer(64)
    b = manual_context.create_buffer(64)
    kernel.set_arg(0, a)
    kernel.set_arg(1, b)
    kernel.set_arg(2, 4)
    written = kernel.written_buffer_args()
    assert list(written.values()) == [b]


def test_written_buffer_args_defaults_to_all(program, manual_context):
    bare = program.create_kernel("bare")
    buf = manual_context.create_buffer(64)
    bare.set_arg(0, buf)
    bare.set_arg(1, 4)
    assert list(bare.written_buffer_args().values()) == [buf]


def test_workgroup_config_normalize_defaults():
    cfg = WorkGroupConfig.normalize((1024,))
    assert cfg.local_size == (64,)
    cfg2 = WorkGroupConfig.normalize((32,))
    assert cfg2.local_size == (32,)


def test_workgroup_config_dims_validation():
    with pytest.raises(InvalidWorkGroupSize):
        WorkGroupConfig((1, 1, 1, 1), (1, 1, 1, 1))
    with pytest.raises(InvalidWorkGroupSize):
        WorkGroupConfig((64,), (8, 8))
    with pytest.raises(InvalidWorkGroupSize):
        WorkGroupConfig((0,), (1,))


def test_workgroup_config_counts():
    cfg = WorkGroupConfig((100, 10), (8, 2))
    assert cfg.work_items == 1000
    assert cfg.workgroup_size == 16
    assert cfg.num_workgroups == 13 * 5


def test_set_work_group_info_overrides_launch(kernel):
    launch = WorkGroupConfig.normalize((1024,), (64,))
    kernel.set_work_group_info("gpu0", (2048,), (256,))
    eff_gpu = kernel.effective_config("gpu0", launch)
    assert eff_gpu.global_size == (2048,) and eff_gpu.local_size == (256,)
    # Devices without a config keep the launch parameters.
    assert kernel.effective_config("cpu", launch) is launch


def test_annotation_cost(kernel, bare_platform):
    spec = bare_platform.device("gpu0").spec
    launch = WorkGroupConfig.normalize((1 << 16,), (128,))
    cost = kernel.launch_price(spec, launch)[0]
    assert cost.flops == pytest.approx(100 * (1 << 16))
    assert cost.bytes == pytest.approx(16 * (1 << 16))
    assert cost.divergence == pytest.approx(0.2)
    assert cost.efficiency[DeviceKind.GPU] == pytest.approx(0.3)
    assert cost.efficiency[DeviceKind.CPU] == pytest.approx(0.9)


def test_annotation_cost_respects_device_config(kernel, bare_platform):
    spec = bare_platform.device("gpu0").spec
    kernel.set_work_group_info("gpu0", (1 << 18,), (256,))
    launch = WorkGroupConfig.normalize((1 << 16,), (64,))
    cost = kernel.launch_price(spec, launch)[0]
    assert cost.work_items == 1 << 18
    assert cost.workgroup_size == 256


def test_unannotated_kernel_without_cost_model_rejected(program, bare_platform):
    bare = program.create_kernel("bare")
    spec = bare_platform.device("cpu").spec
    with pytest.raises(InvalidValue):
        bare.launch_price(spec, WorkGroupConfig.normalize((64,)))[0]


def test_custom_cost_model(program, bare_platform):
    bare = program.create_kernel("bare")
    spec = bare_platform.device("cpu").spec

    def model(dev_spec, config, args):
        return KernelCost(flops=42.0, bytes=7.0, work_items=config.work_items)

    bare.set_cost_model(model)
    cost = bare.launch_price(spec, WorkGroupConfig.normalize((64,)))[0]
    assert cost.flops == 42.0


def test_host_function_receives_named_args(kernel, manual_context):
    a = manual_context.create_buffer(64, host_array=np.arange(8.0))
    b = manual_context.create_buffer(64, host_array=np.zeros(8))
    kernel.set_arg(0, a)
    kernel.set_arg(1, b)
    kernel.set_arg(2, 8)
    seen = {}
    kernel.set_host_function(lambda args: seen.update(args))
    kernel.run_host_function()
    assert np.array_equal(seen["in"], np.arange(8.0))
    assert seen["n"] == 8


def test_host_function_optional(kernel):
    kernel.run_host_function()  # no-op without a payload
