"""Tests for same-host inter-task messaging (the daemon loopback path)."""

import numpy as np
import pytest

from repro.cluster import ucf_testbed
from repro.pvm import VirtualMachine


class TestSameHostIpc:
    def _run_pair(self, nbytes):
        vm = VirtualMachine(ucf_testbed(2), trace=True)

        def receiver(task):
            message = yield from task.recv()
            return (message.nbytes, task.now)

        def sender(task, dst):
            yield from task.send(dst, np.zeros(nbytes, dtype=np.uint8))

        recv_task = vm.spawn(receiver, 0)
        vm.spawn(sender, 0, recv_task.tid)  # same host, different task
        vm.run()
        return vm, recv_task

    def test_delivers_between_tasks_on_one_host(self):
        vm, recv_task = self._run_pair(1000)
        assert recv_task.process.value[0] == 1000

    def test_no_nic_or_wire_charged(self):
        vm, _recv = self._run_pair(10_000)
        assert sum(s.duration for s in vm.tracer.filter("inject")) == 0.0
        assert sum(s.duration for s in vm.tracer.filter("drain")) == 0.0

    def test_pack_still_charged(self):
        vm, _recv = self._run_pair(10_000)
        assert sum(s.duration for s in vm.tracer.filter("pack")) > 0.0

    def test_faster_than_cross_host(self):
        _vm, local = self._run_pair(50_000)

        vm2 = VirtualMachine(ucf_testbed(2))

        def receiver(task):
            message = yield from task.recv()
            return (message.nbytes, task.now)

        def sender(task, dst):
            yield from task.send(dst, np.zeros(50_000, dtype=np.uint8))

        recv_task = vm2.spawn(receiver, 0)
        vm2.spawn(sender, 1, recv_task.tid)  # cross-host
        vm2.run()
        assert local.process.value[1] < recv_task.process.value[1]

    def test_self_send_still_free(self):
        vm = VirtualMachine(ucf_testbed(2))

        def prog(task):
            yield from task.send(task.tid, np.zeros(10_000, dtype=np.uint8))
            message = yield from task.recv()
            return (message.nbytes, task.now)

        task = vm.spawn(prog, 0)
        vm.run()
        assert task.process.value == (0, 0.0)
