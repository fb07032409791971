"""Serial vs parallel differential: the engine must be bit-identical.

The engine promises that worker count is unobservable in the output —
``run_sweep_parallel(spec, workers=k).points == run_sweep(spec).points``
for every k.  That hinges on (a) ``spec.points()`` being the single
definition of sweep order, (b) each point seeding a fresh adversary,
and (c) reassembly by point index.
"""

import pytest

from repro.core import AlgorithmV, AlgorithmX
from repro.experiments import SweepSpec, run_sweep, run_sweep_parallel
from repro.experiments import parallel as parallel_module
from repro.experiments.backends import PoolBackend
from repro.faults import registry


def churn_spec():
    return SweepSpec(
        name="differential-churn",
        algorithm=AlgorithmX,
        sizes=(8, 16, 32),
        processors=lambda n: max(2, n // 4),
        adversary=registry.spec("random", fail=0.15, restart_prob=0.4),
        seeds=(0, 1),
        max_ticks=200_000,
    )


def test_inline_engine_matches_serial_runner():
    spec = churn_spec()
    serial = run_sweep(spec)
    inline = run_sweep_parallel(spec, workers=1)
    assert inline.points == serial.points
    assert inline.stats.executed == len(serial.points)
    assert inline.stats.cache_hits == 0
    assert not inline.failures


@pytest.mark.slow
def test_parallel_engine_bit_identical_to_serial():
    spec = churn_spec()
    serial = run_sweep(spec)
    parallel = run_sweep_parallel(spec, workers=3)
    assert parallel.points == serial.points
    assert parallel.stats.total == len(serial.points)
    assert parallel.stats.executed == len(serial.points)
    assert not parallel.failures


@pytest.mark.slow
def test_worker_count_is_unobservable():
    spec = SweepSpec(
        name="differential-crash",
        algorithm=AlgorithmV,
        sizes=(8, 16),
        processors=8,
        adversary=registry.spec("crash", fail=0.1),
        seeds=(3, 4, 5),
        max_ticks=200_000,
    )
    by_workers = [
        run_sweep_parallel(spec, workers=k).points for k in (1, 2, 4)
    ]
    assert by_workers[0] == by_workers[1] == by_workers[2]


@pytest.mark.slow
def test_lambda_algorithm_rejected_with_clear_error():
    spec = SweepSpec(
        name="unpicklable",
        algorithm=lambda: AlgorithmX(),
        sizes=(8,),
    )
    with pytest.raises(TypeError, match="picklable"):
        run_sweep_parallel(spec, workers=2)
    # Inline execution has no pickling requirement: same spec runs fine.
    assert run_sweep_parallel(spec, workers=1).points


def test_batch_checks_every_spec_before_submitting(monkeypatch):
    # Only the last spec of the batch is unpicklable: the engine must
    # refuse the whole batch up front, before any point runs.
    executed, submitted = [], []
    real = parallel_module.execute_point

    def counting(*args, **kwargs):
        executed.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(parallel_module, "execute_point", counting)
    monkeypatch.setattr(PoolBackend, "submit",
                        lambda self, point, attempt: submitted.append(point))
    specs = [
        SweepSpec(name=f"pickled-{index}", algorithm=AlgorithmX, sizes=(8,),
                  adversary=registry.spec("none"))
        for index in range(2)
    ] + [
        SweepSpec(name="unpicklable-last", algorithm=lambda: AlgorithmX(),
                  sizes=(8,)),
    ]
    with pytest.raises(TypeError, match="picklable"):
        run_sweep_parallel(specs, workers=2)
    assert submitted == []
    assert executed == []


@pytest.mark.parametrize("timeout", [0, -1])
def test_non_positive_timeout_rejected_before_submitting(
    monkeypatch, timeout,
):
    # setitimer rejects a negative budget and reads zero as "disarm", so
    # the engine must refuse both up front: no point may run, let alone
    # be retried and quarantined as an "error".
    executed = []
    real = parallel_module.execute_point

    def counting(*args, **kwargs):
        executed.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(parallel_module, "execute_point", counting)
    spec = SweepSpec(name="bad-timeout", algorithm=AlgorithmX, sizes=(8,),
                     adversary=registry.spec("none"))
    with pytest.raises(ValueError, match="timeout must be positive"):
        run_sweep_parallel(spec, workers=1, timeout=timeout)
    assert executed == []


def test_meta_aligns_with_points():
    result = run_sweep_parallel(
        SweepSpec(
            name="meta-align", algorithm=AlgorithmX, sizes=(8, 16),
            adversary=registry.spec("none"), seeds=(0, 1),
        ),
        workers=1,
    )
    assert len(result.meta) == len(result.points)
    assert [meta.index for meta in result.meta] == list(range(len(result.points)))
    assert all(not meta.cached for meta in result.meta)
    assert all(meta.attempts == 1 for meta in result.meta)


class TestAlarmNesting:
    """The SIGALRM guard must not disarm an enclosing timer on exit."""

    @pytest.fixture(autouse=True)
    def _require_sigalrm(self):
        import signal

        if not hasattr(signal, "SIGALRM"):
            pytest.skip("platform has no SIGALRM")
        yield
        # Whatever a test did, leave the process with no timer pending.
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def test_inner_exit_restores_outer_timer(self):
        import signal

        from repro.experiments.parallel import _alarm

        with _alarm(30.0):
            with _alarm(5.0):
                pass
            # The outer timer must still be running (the old behavior
            # zeroed it, leaving delay == 0.0 => unguarded).
            delay, _ = signal.getitimer(signal.ITIMER_REAL)
            assert 0.0 < delay <= 30.0
            # Elapsed time inside the inner guard is deducted.
            assert delay <= 30.0 - 5e-7 or delay <= 30.0

    def test_inner_timeout_still_fires(self):
        from repro.experiments.parallel import PointTimeout, _alarm

        with _alarm(30.0):
            with pytest.raises(PointTimeout):
                with _alarm(0.01):
                    import time as _time

                    deadline = _time.monotonic() + 2.0
                    while _time.monotonic() < deadline:
                        pass
            import signal

            delay, _ = signal.getitimer(signal.ITIMER_REAL)
            assert delay > 0.0

    def test_exit_without_outer_timer_disarms(self):
        import signal

        from repro.experiments.parallel import _alarm

        with _alarm(5.0):
            pass
        delay, _ = signal.getitimer(signal.ITIMER_REAL)
        assert delay == 0.0


class TestAlarmOffMainThread:
    """The timeout guard off the main thread (satellite regression).

    SIGALRM can only be armed from the main thread; before the fix,
    entering ``_alarm`` anywhere else raised ``ValueError`` from
    ``signal.signal``.  Now it degrades to a timer-based soft deadline:
    same ``PointTimeout``, same between-bytecodes granularity, one
    ``RuntimeWarning`` per process.
    """

    def run_in_thread(self, target):
        import threading

        box = {}

        def wrapper():
            try:
                box["value"] = target()
            except BaseException as exc:  # noqa: BLE001 - relayed to test
                box["error"] = exc

        worker = threading.Thread(target=wrapper, daemon=True)
        worker.start()
        worker.join(timeout=30.0)
        assert not worker.is_alive(), "guarded thread never finished"
        if "error" in box:
            raise box["error"]
        return box.get("value")

    def test_entering_off_main_thread_warns_instead_of_raising(self):
        import warnings

        from repro.experiments.parallel import _alarm

        def guarded_noop():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with _alarm(5.0):
                    pass
            return caught

        _alarm._soft_warned = False  # the warning is once-per-process
        caught = self.run_in_thread(guarded_noop)
        assert any(
            issubclass(w.category, RuntimeWarning)
            and "SIGALRM" in str(w.message)
            for w in caught
        )
        # Second use is silent.
        assert not self.run_in_thread(guarded_noop)

    def test_soft_deadline_interrupts_off_main_thread(self):
        import time as _time

        from repro.experiments.parallel import PointTimeout, _alarm

        def spin_past_deadline():
            with pytest.raises(PointTimeout):
                with _alarm(0.05):
                    deadline = _time.monotonic() + 10.0
                    while _time.monotonic() < deadline:
                        pass
            return "interrupted"

        assert self.run_in_thread(spin_past_deadline) == "interrupted"

    def test_fast_body_is_not_interrupted_after_exit(self):
        import time as _time

        from repro.experiments.parallel import _alarm

        def guarded_fast_body():
            with _alarm(0.05):
                value = 1 + 1
            # Linger past the deadline: a timer firing after __exit__
            # must not inject PointTimeout into this thread.
            _time.sleep(0.2)
            return value

        assert self.run_in_thread(guarded_fast_body) == 2

    def test_execute_point_times_out_off_main_thread(self):
        from repro.experiments import parallel as parallel_module

        spec = churn_spec()
        point = parallel_module.expand_spec(spec)[0]

        def glacial(*args, **kwargs):
            import time as _time

            deadline = _time.monotonic() + 10.0
            while _time.monotonic() < deadline:
                pass

        real = parallel_module.measure_write_all
        parallel_module.measure_write_all = glacial
        try:
            def run():
                return parallel_module.execute_point(point, timeout=0.1)

            status, payload, elapsed = self.run_in_thread(run)
        finally:
            parallel_module.measure_write_all = real
        assert status == "timeout"
        assert "0.1" in str(payload)


class TestEtaEstimator:
    """The running-mean ETA behind the engine's progress lines."""

    def test_mean_excludes_cache_hits(self):
        from repro.experiments import EtaEstimator

        eta = EtaEstimator(total=4)
        assert eta.mean_point_s is None
        assert eta.eta_s is None
        assert eta.render() == "0/4 points"
        eta.observe(0.0, cached=True)  # instant hit must not poison the mean
        eta.observe(2.0)
        eta.observe(4.0)
        assert eta.completed == 3
        assert eta.executed == 2
        assert eta.mean_point_s == pytest.approx(3.0)
        assert eta.eta_s == pytest.approx(3.0)  # one point left at the mean
        assert eta.render() == "3/4 points, mean 3.000s/point, eta ~3s"
        eta.observe(3.0)
        assert eta.eta_s == pytest.approx(0.0)

    def test_engine_reports_progress_through_the_estimator(
        self, monkeypatch,
    ):
        spec = SweepSpec(
            name="eta-progress", algorithm=AlgorithmX, sizes=(8, 16),
            adversary=registry.spec("none"), seeds=(0, 1),
        )
        monkeypatch.setattr(parallel_module, "PROGRESS_EVERY", 1)
        lines = []
        result = run_sweep_parallel(spec, workers=1, progress=lines.append)
        assert len(lines) == result.stats.total
        assert lines[-1].startswith(f"{result.stats.total}/"
                                    f"{result.stats.total} points")
        assert "mean" in lines[-1]
