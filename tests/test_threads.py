"""dignn's per-call second thread (``threads.run_in_two``) and the scope that
holds OpenBLAS at one thread (``threads.one_blas_thread``)."""

import json
import os
import subprocess
import sys
import threading
import time
from functools import partial

import numpy as np
import pytest

import dignn.autodiff as ad
from dignn import threads, trainer
from dignn.graphdata import SynthConfig, stratified_split, synth_generate
from dignn.model import DignnConfig, DignnParams

CHUNK = ad.ADAM_CHUNK
SRC = os.path.dirname(os.path.dirname(threads.__file__))


def three_adam_steps(shape):
    """p, m and v after three Adam steps from a fixed start and fixed grads,
    with the ranges ``Adam._update`` was called on, each with whether the
    calling thread ran it."""
    rng = np.random.default_rng(0)
    p = ad.Var(rng.standard_normal(shape))
    opt = ad.Adam({"w": p}, lr=0.01, weight_decay=0.0005)
    calls = []
    update = ad.Adam._update

    def recorded(self, *args):
        calls.append((*args[-3:-1], threading.current_thread() is threading.main_thread()))
        return update(self, *args)

    ad.Adam._update = recorded
    try:
        for _ in range(3):
            g = rng.standard_normal(shape)
            opt.step(ad.sum_all(ad.mul(p, g)))  # p's grad is exactly g
    finally:
        ad.Adam._update = update
    return (p.value, opt.m["w"], opt.v["w"]), sorted(calls)


def refuse(thread):
    raise RuntimeError("can't start new thread")


class TestAdamOnTheWorker:
    # Each case names whether Adam splits it, so a change of ADAM_CHUNK that
    # moves a case across the split fails here rather than testing the other
    # path under its old name.
    @pytest.mark.parametrize("shape, is_split", [
        ((45_954, 64), True), ((64, 45_954), True), ((1, 45_954), False),  # YelpChi scale
        ((7, 40_001), True), ((1, 2 * CHUNK + 1), True), ((1, 2 * CHUNK), True),
        ((1, 2 * CHUNK - 1), False), ((3, 3 * CHUNK + 5), True),
    ], ids=["enc_a_w1", "dec_a_w2", "dec_a_b2", "4.27_chunks", "just_above_split",
            "at_split", "just_below_split", "3_rows_of_3_chunks"])
    def test_matches_inline(self, shape, is_split, monkeypatch):
        split, calls = three_adam_steps(shape)
        monkeypatch.setattr(threading.Thread, "start", refuse)
        inline, inline_calls = three_adam_steps(shape)
        for a, b in zip(split, inline):
            assert np.array_equal(a, b)
        assert inline_calls == [(lo, hi, True) for lo, hi, _ in calls]
        size = shape[0] * shape[1]
        if not is_split:
            assert calls == 3 * [(0, size, True)]
        else:  # the caller's part, then the second thread's, of each step
            half = calls[0][1]
            assert calls == 3 * [(0, half, True)] + 3 * [(half, size, False)]
            assert half % CHUNK == 0 and abs(2 * half - size) <= CHUNK


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="os.sched_setaffinity is missing")
def test_second_half_runs_on_its_own_thread_on_one_cpu():
    # The calling thread is pinned, and the thread it starts inherits its CPU.
    ran = []

    def record(name):
        ran.append((name, threading.current_thread() is threading.main_thread()))

    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        threads.run_in_two(partial(record, "first"), partial(record, "second"))
    finally:
        os.sched_setaffinity(0, cpus)
    assert sorted(ran) == [("first", True), ("second", False)]


def test_callers_error_is_raised_after_the_second_half_ends():
    ended = []

    def first():
        raise ValueError("first")

    def second():
        time.sleep(0.05)
        ended.append(threading.current_thread() is not threading.main_thread())
        raise ValueError("second")

    with pytest.raises(ValueError, match="first"):
        threads.run_in_two(first, second)
    assert ended == [True]


def test_no_thread_outlives_a_call(tmp_path, monkeypatch):
    # train (init's runs, then Adam's updates of the 1,000 x 64 encoder
    # layer) and init each start threads, and load, which reads on the
    # calling thread, need not; each leaves the same ones alive.
    started = []
    start = threading.Thread.start

    def recorded(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", recorded)
    g = synth_generate(SynthConfig(seed=1))
    split = stratified_split(g, (0.4, 0.2, 0.4), seed=1)
    path = str(tmp_path / "m.bin")
    calls = [
        ("train", 2, lambda: trainer.train(g, split, trainer.TrainConfig(epochs=1))),
        ("init", 1, lambda: DignnParams.init(2000, 8, DignnConfig(), seed=4).save(path)),
        ("load", 0, lambda: DignnParams.load(path)),
    ]
    for name, least, call in calls:
        before, n = {t.name for t in threading.enumerate()}, len(started)
        call()
        assert {t.name for t in threading.enumerate()} == before, name
        assert len(started) - n >= least, name


@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_forked_childs_init_ends():
    # A child forked from a process that has run split jobs inherits no
    # thread of dignn's: its init must start and join its own, not wait on
    # one that only the parent has.
    expected = DignnParams.init(2000, 8, DignnConfig(), seed=4)
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            p = DignnParams.init(2000, 8, DignnConfig(), seed=4)
            code = 0 if all(np.array_equal(p[n].value, v.value)
                            for n, v in expected.tensors.items()) else 2
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            assert os.waitstatus_to_exitcode(status) == 0
            return
        time.sleep(0.01)
    os.kill(pid, 9)
    os.waitpid(pid, 0)
    pytest.fail("the forked child's DignnParams.init did not end in 30 s")


# -- the scope ----------------------------------------------------------------

def test_scope_finds_the_controls_of_numpys_openblas():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if blas.get("name") != "scipy-openblas":
        pytest.skip(f"numpy's BLAS is {blas.get('name')!r}, not scipy-openblas")
    assert threads.BLAS_CONTROLS is not None
    assert threads.blas_threads() >= 1


# Under OPENBLAS_NUM_THREADS=2: train once, then sleep; train again with a
# step that raises; then evaluate alone, then predict alone. Prints
# OpenBLAS's thread count at each point, inside every Adam step and every
# forward of the standalone evaluate and predict, and the CPU time used in
# the sleep.
SCOPE_CHILD = """
import json, time
from dignn import autodiff as ad, model, threads, trainer
from dignn.errors import DivergenceError
from dignn.graphdata import (SynthConfig, gather_batch, normalize_features,
                             stratified_split, synth_generate)

g = synth_generate(SynthConfig(num_nodes=3000, feature_dim=16, seed=3))
split = stratified_split(g, (0.4, 0.2, 0.4), seed=1)
g = normalize_features(g, split)
cfg = trainer.TrainConfig(epochs=1, seed=5)
out = {"start": threads.blas_threads(), "in_step": [], "in_evaluate": [],
       "in_predict": [], "raised": False}
step, encode = ad.Adam.step, model.encode_views

def watched(self, loss):
    out["in_step"].append(threads.blas_threads())
    if out["raised"] is None:
        raise DivergenceError("injected", None)
    return step(self, loss)

ad.Adam.step = watched
params, _ = trainer.train(g, split, cfg)
out["after_train"] = threads.blas_threads()
cpu = time.process_time()
time.sleep(0.3)
out["sleep_cpu_s"] = time.process_time() - cpu
out["raised"] = None
try:
    trainer.train(g, split, cfg)
except DivergenceError:
    out["raised"] = True
out["after_raise"] = threads.blas_threads()

def watched_encode(*args):  # inside forward, whose scope holds one thread
    out[where].append(threads.blas_threads())
    return encode(*args)

model.encode_views = watched_encode
where = "in_evaluate"
trainer.evaluate(params, g, split.test)
out["after_evaluate"] = threads.blas_threads()
where = "in_predict"
model.predict(params, gather_batch(g, split.test), params.cfg)
out["after_predict"] = threads.blas_threads()
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def scope_child():
    if threads.BLAS_CONTROLS is None:
        pytest.skip("numpy's BLAS exports no OpenBLAS thread controls")
    proc = subprocess.run(
        [sys.executable, "-c", SCOPE_CHILD], capture_output=True, text=True,
        timeout=120, check=True,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "2", "PYTHONPATH": SRC})
    out = json.loads(proc.stdout)
    if out["start"] != 2:  # OpenBLAS takes no more threads than CPUs
        pytest.skip(f"OpenBLAS starts at {out['start']} thread(s), not 2")
    return out


def test_no_blas_thread_spins_after_train(scope_child):
    """OpenBLAS's idle thread spins for about 128 ms after a product it split
    over two threads. Before ``train`` held OpenBLAS at one thread, this
    child used 0.13 s of CPU in its 0.3 s sleep on a 2-core host."""
    assert scope_child["sleep_cpu_s"] < 0.03


def test_scope_holds_one_thread_and_restores_two(scope_child):
    assert scope_child["in_step"] and set(scope_child["in_step"]) == {1}
    assert scope_child["in_evaluate"] and set(scope_child["in_evaluate"]) == {1}
    assert scope_child["in_predict"] == [1]
    assert scope_child["raised"] is True
    assert (scope_child["after_train"], scope_child["after_raise"],
            scope_child["after_evaluate"], scope_child["after_predict"]) == (2, 2, 2, 2)


def test_nested_scope_sets_nothing(monkeypatch):
    count, sets = [3], []

    def set_count(n):
        sets.append(n)
        count[0] = n

    monkeypatch.setattr(threads, "BLAS_CONTROLS", (lambda: count[0], set_count))
    with pytest.raises(ZeroDivisionError):
        with threads.one_blas_thread():
            with threads.one_blas_thread():
                assert count == [1]
            assert count == [1]
            1 / 0
    assert count == [3] and sets == [1, 3]


@pytest.mark.parametrize("half", ["first", "second"])
def test_both_halves_keep_the_callers_errstate(half):
    # numpy's errstate is a context variable, and a new thread starts in an
    # empty context unless it is given the caller's.
    ran = []

    def divide(name):
        ran.append((name, threading.current_thread() is threading.main_thread()))
        if name == half:
            np.divide(np.ones(4), np.zeros(4))

    with np.errstate(divide="raise"), pytest.raises(FloatingPointError):
        threads.run_in_two(partial(divide, "first"), partial(divide, "second"))
    assert sorted(ran) == [("first", True), ("second", False)]


def test_concurrent_callers_each_get_both_halves():
    # Four threads each call run_in_two at once, with the interpreter
    # switching threads as often as it can.
    done = np.zeros((4, 200, 2), dtype=np.int64)
    early = []  # calls that returned before both halves ran

    def caller(i):
        for k in range(200):
            def half(j, i=i, k=k):
                done[i, k, j] += 1
            threads.run_in_two(partial(half, 0), partial(half, 1))
            if done[i, k].tolist() != [1, 1]:
                early.append((i, k))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=caller, args=(i,)) for i in range(4)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert early == [] and (done == 1).all()
