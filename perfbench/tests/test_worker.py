import gc

import worker
from workloads import Call, Workload


class Allocating:
    @staticmethod
    def build(n):
        return [[i] for i in range(n)]

    @staticmethod
    def fail():
        raise ValueError("no")


def test_run_round_cuts_calls_at_collector_runs_and_restores_callbacks():
    workload = Workload("fake")
    workload.calls = [Call("build", "build", "f", Allocating, (20000,), 1),
                      Call("fail", "fail", "f", Allocating, (), 1)]
    before = list(gc.callbacks)
    gc.collect()
    outputs, stretches, errors, wall = worker.run_round(workload)
    assert gc.callbacks == before
    assert len(outputs[0]) == 20000 and outputs[1] is worker.RAISED
    assert errors == {1: "ValueError"}
    assert len(stretches[0]) > 1  # 20000 lists pass the collector's threshold
    assert all(s >= 0 for s in stretches[0])
    assert sum(map(sum, stretches)) <= wall
