//! Fault-isolation, retry, timeout, chaos-injection, and journal-resume
//! coverage for the executor (ISSUE 4 satellite: pool edge cases).

use cestim_exec::{
    install_quiet_panic_hook, BatchFailure, CachePolicy, Executor, FaultPlan, Job, JobErrorKind,
    RetryPolicy, RunJournal,
};
use serde::{Map, Value};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cestim-resilience-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A job that squares its seed, panicking when `boom` is set.
struct Square {
    seed: u64,
    boom: bool,
}

impl Square {
    fn batch(n: u64) -> Vec<Square> {
        (1..=n).map(|seed| Square { seed, boom: false }).collect()
    }

    fn batch_with_bombs(n: u64, bombs: &[u64]) -> Vec<Square> {
        (1..=n)
            .map(|seed| Square {
                seed,
                boom: bombs.contains(&seed),
            })
            .collect()
    }
}

impl Job for Square {
    type Output = u64;

    fn content(&self) -> Value {
        let mut m = Map::new();
        m.insert("seed".into(), Value::Number(self.seed.into()));
        Value::Object(m)
    }

    fn schema_salt(&self) -> u64 {
        cestim_exec::schema_salt("resilience-test", 1)
    }

    fn label(&self) -> String {
        format!("square-{}", self.seed)
    }

    fn execute(&self) -> u64 {
        if self.boom {
            panic!("boom at seed {}", self.seed);
        }
        self.seed * self.seed
    }
}

/// Panics on its first `fail_attempts` executions, then succeeds.
struct Flaky {
    seed: u64,
    fail_attempts: u32,
    calls: AtomicU32,
}

impl Job for Flaky {
    type Output = u64;

    fn content(&self) -> Value {
        let mut m = Map::new();
        m.insert("seed".into(), Value::Number(self.seed.into()));
        Value::Object(m)
    }

    fn schema_salt(&self) -> u64 {
        cestim_exec::schema_salt("resilience-flaky", 1)
    }

    fn label(&self) -> String {
        format!("flaky-{}", self.seed)
    }

    fn execute(&self) -> u64 {
        let call = self.calls.fetch_add(1, Ordering::SeqCst);
        if call < self.fail_attempts {
            panic!("transient failure {call} for seed {}", self.seed);
        }
        self.seed + 100
    }
}

#[test]
fn zero_jobs_is_an_empty_batch() {
    let exec = Executor::new(4);
    let out = exec.run_all_checked(&Square::batch(0));
    assert!(out.is_empty());
    assert_eq!(exec.report().submitted, 0);
    let out = exec.run_all(&Square::batch(0));
    assert!(out.is_empty());
}

#[test]
fn one_panicking_job_mid_queue_is_isolated() {
    install_quiet_panic_hook();
    // More jobs than workers, bomb in the middle of the queue.
    let jobs = Square::batch_with_bombs(12, &[7]);
    let exec = Executor::new(3);
    let results = exec.run_all_checked(&jobs);
    assert_eq!(results.len(), 12);
    for (i, r) in results.iter().enumerate() {
        let seed = i as u64 + 1;
        if seed == 7 {
            let e = r.as_ref().unwrap_err();
            assert_eq!(e.kind, JobErrorKind::Panicked);
            assert_eq!(e.label, "square-7");
            assert_eq!(e.attempts, 1);
            assert!(e.message.contains("boom at seed 7"), "{}", e.message);
            assert_eq!(e.key.len(), 32, "cache-key provenance travels along");
        } else {
            assert_eq!(r.as_ref().unwrap(), &(seed * seed));
        }
    }
    assert_eq!(exec.report().panics_caught, 1);
}

#[test]
fn all_jobs_panicking_still_returns_every_slot() {
    install_quiet_panic_hook();
    let jobs = Square::batch_with_bombs(6, &[1, 2, 3, 4, 5, 6]);
    let exec = Executor::new(2);
    let results = exec.run_all_checked(&jobs);
    assert_eq!(results.len(), 6);
    assert!(results.iter().all(|r| r.is_err()));
    assert_eq!(exec.report().panics_caught, 6);
}

#[test]
fn run_all_panics_with_a_structured_batch_failure() {
    install_quiet_panic_hook();
    let jobs = Square::batch_with_bombs(5, &[2, 4]);
    let exec = Executor::new(2);
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| exec.run_all(&jobs)))
        .expect_err("batch with failures must not return normally");
    let failure = payload
        .downcast_ref::<BatchFailure>()
        .expect("payload is a BatchFailure");
    assert_eq!(failure.total, 5);
    assert_eq!(failure.errors.len(), 2);
    // Submission order is preserved in the error list.
    assert_eq!(failure.errors[0].label, "square-2");
    assert_eq!(failure.errors[1].label, "square-4");
    assert!(failure.to_string().contains("2/5 jobs failed"));
}

#[test]
fn retry_until_success_counts_attempts() {
    install_quiet_panic_hook();
    let jobs: Vec<Flaky> = (1..=4)
        .map(|seed| Flaky {
            seed,
            fail_attempts: if seed == 3 { 2 } else { 0 },
            calls: AtomicU32::new(0),
        })
        .collect();
    let exec = Executor::new(2).with_retry(RetryPolicy {
        max_attempts: 3,
        base_ms: 1,
        max_ms: 5,
    });
    let results = exec.run_all_checked(&jobs);
    assert!(results.iter().all(|r| r.is_ok()));
    assert_eq!(*results[2].as_ref().unwrap(), 103);
    assert_eq!(
        jobs[2].calls.load(Ordering::SeqCst),
        3,
        "2 failures + 1 success"
    );
    assert_eq!(jobs[0].calls.load(Ordering::SeqCst), 1);
    let report = exec.report();
    assert_eq!(report.retries, 2);
    assert_eq!(report.panics_caught, 2);
    // The attempt histogram saw the 3-attempt job.
    let snap = exec.registry().snapshot();
    match snap.get("exec.job.attempts") {
        Some(cestim_obs::MetricValue::Histogram(h)) => {
            assert_eq!(h.count, 4);
            assert_eq!(h.sum, 1 + 1 + 3 + 1);
        }
        other => panic!("missing attempts histogram: {other:?}"),
    }
}

#[test]
fn exhausted_retries_surface_the_final_error() {
    install_quiet_panic_hook();
    let jobs = vec![Flaky {
        seed: 9,
        fail_attempts: u32::MAX,
        calls: AtomicU32::new(0),
    }];
    let exec = Executor::sequential().with_retry(RetryPolicy {
        max_attempts: 3,
        base_ms: 1,
        max_ms: 2,
    });
    let results = exec.run_all_checked(&jobs);
    let e = results[0].as_ref().unwrap_err();
    assert_eq!(e.kind, JobErrorKind::Panicked);
    assert_eq!(e.attempts, 3);
    assert_eq!(jobs[0].calls.load(Ordering::SeqCst), 3);
    assert_eq!(exec.report().retries, 2);
}

#[test]
fn injected_panics_fire_deterministically_and_converge_under_retry() {
    install_quiet_panic_hook();
    let jobs = Square::batch(10);
    let clean: Vec<u64> = Executor::sequential().run_all(&jobs);

    // Without retries every 3rd submitted job fails...
    let chaotic = Executor::new(4).with_fault_plan(FaultPlan::parse("panic:3").unwrap());
    let results = chaotic.run_all_checked(&jobs);
    let failed: Vec<usize> = results
        .iter()
        .enumerate()
        .filter_map(|(i, r)| r.is_err().then_some(i))
        .collect();
    assert_eq!(failed, vec![2, 5, 8]);
    for i in [0usize, 1, 3, 4, 6, 7, 9] {
        assert_eq!(results[i].as_ref().unwrap(), &clean[i], "isolation");
    }
    let err = results[2].as_ref().unwrap_err();
    assert!(err.message.contains("injected fault"), "{}", err.message);

    // ...and with one retry the faults are transient: byte-identical output.
    let retried = Executor::new(4)
        .with_fault_plan(FaultPlan::parse("panic:3").unwrap())
        .with_retry(RetryPolicy {
            max_attempts: 2,
            base_ms: 1,
            max_ms: 5,
        });
    let healed = retried.run_all(&jobs);
    assert_eq!(healed, clean);
    assert_eq!(retried.report().retries, 3);
    assert_eq!(retried.report().panics_caught, 3);
}

#[test]
fn slow_jobs_past_the_deadline_time_out_in_both_paths() {
    install_quiet_panic_hook();
    // Parallel path: watchdog flags the slow job, survivors drain the rest.
    let jobs = Square::batch(6);
    let exec = Executor::new(3)
        .with_fault_plan(FaultPlan::parse("slow:4:300").unwrap())
        .with_deadline(Some(Duration::from_millis(40)));
    let results = exec.run_all_checked(&jobs);
    let e = results[3].as_ref().unwrap_err();
    assert_eq!(e.kind, JobErrorKind::TimedOut);
    for i in [0usize, 1, 2, 4, 5] {
        assert!(results[i].is_ok(), "survivors complete");
    }
    assert_eq!(exec.report().timeouts, 1);

    // Inline path: post-hoc deadline check, same structured outcome.
    let exec = Executor::sequential()
        .with_fault_plan(FaultPlan::parse("slow:2:120").unwrap())
        .with_deadline(Some(Duration::from_millis(30)));
    let results = exec.run_all_checked(&Square::batch(2));
    assert!(results[0].is_ok());
    assert_eq!(
        results[1].as_ref().unwrap_err().kind,
        JobErrorKind::TimedOut
    );
    assert_eq!(exec.report().timeouts, 1);
}

/// A cancellation-aware busy loop (seed 0) modelled on the simulator
/// hot loop: polls the ambient cancel token every `check_every`
/// iterations and abandons itself once overdue. Other seeds return
/// immediately.
struct Spin {
    seed: u64,
}

impl Job for Spin {
    type Output = u64;

    fn content(&self) -> Value {
        let mut m = Map::new();
        m.insert("seed".into(), Value::Number(self.seed.into()));
        Value::Object(m)
    }

    fn schema_salt(&self) -> u64 {
        cestim_exec::schema_salt("resilience-spin", 1)
    }

    fn label(&self) -> String {
        format!("spin-{}", self.seed)
    }

    fn execute(&self) -> u64 {
        if self.seed == 0 {
            let token = cestim_obs::cancel::current();
            let safety = std::time::Instant::now();
            let mut i = 0u64;
            loop {
                i = i.wrapping_add(1);
                if let Some(t) = token {
                    if i.is_multiple_of(t.check_every) && t.expired() {
                        cestim_obs::cancel::fire();
                    }
                }
                // Safety valve so a regression fails the test instead of
                // hanging it.
                if i.is_multiple_of(1 << 22) && safety.elapsed() > Duration::from_secs(20) {
                    return u64::MAX;
                }
            }
        }
        self.seed
    }
}

#[test]
fn cooperative_cancel_releases_the_worker() {
    install_quiet_panic_hook();
    let jobs: Vec<Spin> = (0..4).map(|seed| Spin { seed }).collect();
    let exec = Executor::new(2)
        .with_deadline(Some(Duration::from_millis(40)))
        .with_cancel_every(1 << 12);
    let start = std::time::Instant::now();
    let results = exec.run_all_checked(&jobs);
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "cancelled job released its worker instead of spinning forever"
    );
    let e = results[0].as_ref().unwrap_err();
    assert_eq!(e.kind, JobErrorKind::TimedOut);
    assert_eq!(e.attempts, 1, "a cancelled attempt is never retried");
    for (i, r) in results.iter().enumerate().skip(1) {
        assert_eq!(r.as_ref().unwrap(), &(i as u64), "survivors complete");
    }
    let report = exec.report();
    assert_eq!(report.timeouts, 1);
    assert_eq!(
        report.panics_caught, 0,
        "a cancel is a timeout, not a crash"
    );
    assert_eq!(report.retries, 0);
}

#[test]
fn timed_out_results_are_not_cached() {
    install_quiet_panic_hook();
    let dir = tmp_dir("timeout-cache");
    let exec = Executor::sequential()
        .with_cache(&dir, CachePolicy::ReadWrite)
        .unwrap()
        .with_fault_plan(FaultPlan::parse("slow:1:120").unwrap())
        .with_deadline(Some(Duration::from_millis(30)));
    let results = exec.run_all_checked(&Square::batch(1));
    assert_eq!(
        results[0].as_ref().unwrap_err().kind,
        JobErrorKind::TimedOut
    );
    // A rerun without the deadline must re-execute, not read a cached
    // value from the overdue attempt.
    let exec2 = Executor::sequential()
        .with_cache(&dir, CachePolicy::ReadWrite)
        .unwrap();
    let results = exec2.run_all_checked(&Square::batch(1));
    assert_eq!(results[0].as_ref().unwrap(), &1);
    assert_eq!(exec2.report().cache_hits, 0);
    assert_eq!(exec2.report().executed, 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn cache_store_failures_are_counted_not_fatal() {
    let dir = tmp_dir("store-fail");
    let exec = Executor::sequential()
        .with_cache(&dir, CachePolicy::ReadWrite)
        .unwrap();
    // Pull the directory out from under the cache: every store now fails
    // with ENOENT (works even as root, unlike permission bits).
    std::fs::remove_dir_all(&dir).unwrap();
    let out = exec.run_all(&Square::batch(4));
    assert_eq!(out, vec![1, 4, 9, 16], "results unaffected");
    assert_eq!(exec.report().cache_store_errors, 4);
    let snap = exec.registry().snapshot();
    assert_eq!(snap.counter_value("exec.cache.store_errors"), Some(4));
}

#[test]
fn io_faults_skip_the_cache_and_count_store_errors() {
    let dir = tmp_dir("io-fault");
    let jobs = Square::batch(4);
    // Warm the cache fault-free.
    let warm = Executor::sequential()
        .with_cache(&dir, CachePolicy::ReadWrite)
        .unwrap();
    warm.run_all(&jobs);

    // Every 2nd job's cache I/O "fails": reads miss, writes are dropped.
    let exec = Executor::sequential()
        .with_cache(&dir, CachePolicy::ReadWrite)
        .unwrap()
        .with_fault_plan(FaultPlan::parse("io:2").unwrap());
    let out = exec.run_all(&jobs);
    assert_eq!(out, vec![1, 4, 9, 16]);
    let report = exec.report();
    assert_eq!(report.cache_hits, 2, "odd seqs still hit");
    assert_eq!(report.executed, 2, "even seqs re-execute");
    assert_eq!(report.cache_store_errors, 2);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn run_one_shares_the_batch_probe_store_and_journal() {
    install_quiet_panic_hook();
    let dir = tmp_dir("run-one");
    let open = |fault: &str| {
        Executor::sequential()
            .with_cache(dir.join("cache"), CachePolicy::ReadWrite)
            .unwrap()
            .with_journal(Arc::new(RunJournal::resume(dir.join("journal")).unwrap()))
            .with_fault_plan(FaultPlan::parse(fault).unwrap())
    };
    let job = Square {
        seed: 7,
        boom: false,
    };
    let key = job.cache_key();

    // io:2 faults the second execution: a cold miss, then a probe that
    // misses the warm entry and fails its store, then a hit.
    let exec = open("io:2");
    for cached in [false, false, true] {
        let run = exec.run_one(&job, &key, None).unwrap();
        assert_eq!((run.output, run.cached, run.resumed), (49, cached, false));
    }
    let r = exec.report();
    assert_eq!((r.submitted, r.executed, r.cache_hits), (3, 2, 1));
    assert_eq!(r.cache_store_errors, 1);

    // A resumed journal books the warm hit as resumed work, and the
    // fault sequence counts executions only: the hit leaves `panic:1`
    // armed for the next executed job.
    let resumed = open("panic:1");
    let hit = resumed.run_one(&job, &key, None).unwrap();
    assert_eq!((hit.cached, hit.resumed), (true, true));
    let other = Square {
        seed: 8,
        boom: false,
    };
    let err = resumed
        .run_one(&other, &other.cache_key(), None)
        .unwrap_err();
    assert_eq!(err.kind, JobErrorKind::Panicked);
    assert_eq!(err.key, other.cache_key().id());
    assert!(err.message.starts_with(cestim_exec::INJECTED_PANIC_PREFIX));
    assert_eq!(resumed.report().jobs_resumed, 1);
    let lines = std::fs::read_to_string(dir.join("journal").join("run.jsonl")).unwrap();
    assert!(lines.contains(r#""attempt":0,"outcome":"cached""#));
    assert!(lines.contains(r#""attempt":1,"outcome":"panicked""#));

    // The deadline arms cooperative cancellation; nothing is cached.
    let spin = Spin { seed: 0 };
    let deadline = std::time::Instant::now() + Duration::from_millis(40);
    let err = exec
        .run_one(&spin, &spin.cache_key(), Some(deadline))
        .unwrap_err();
    assert_eq!(err.kind, JobErrorKind::TimedOut);
    assert!(cestim_obs::cancel::is_cancel_panic(&err.message));
    let cache = cestim_exec::DiskCache::open(dir.join("cache")).unwrap();
    assert!(cache.load::<u64>(&spin.cache_key()).is_none());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn journal_resume_skips_completed_jobs() {
    let cache_dir = tmp_dir("resume-cache");
    let journal_dir = tmp_dir("resume-journal");
    let all = Square::batch(8);

    // First run "dies" after completing only the first half of the suite.
    {
        let journal = Arc::new(RunJournal::start(&journal_dir).unwrap());
        let exec = Executor::new(2)
            .with_cache(&cache_dir, CachePolicy::ReadWrite)
            .unwrap()
            .with_journal(journal);
        let out = exec.run_all(&all[..4]);
        assert_eq!(out, vec![1, 4, 9, 16]);
        // Executor dropped here: simulated kill before the second half.
    }

    // Resumed run replays the journal: the first half is answered from
    // cache and counted as resumed, only the second half executes.
    let journal = Arc::new(RunJournal::resume(&journal_dir).unwrap());
    assert_eq!(journal.prior_job_count(), 4);
    let exec = Executor::new(2)
        .with_cache(&cache_dir, CachePolicy::ReadWrite)
        .unwrap()
        .with_journal(journal);
    let out = exec.run_all(&all);
    assert_eq!(out, vec![1, 4, 9, 16, 25, 36, 49, 64]);
    let report = exec.report();
    assert_eq!(report.cache_hits, 4);
    assert_eq!(report.jobs_resumed, 4);
    assert_eq!(report.executed, 4);
    let snap = exec.registry().snapshot();
    assert_eq!(snap.counter_value("exec.jobs_resumed"), Some(4));

    std::fs::remove_dir_all(&cache_dir).unwrap();
    std::fs::remove_dir_all(&journal_dir).unwrap();
}

#[test]
fn poisoned_queue_locks_recover() {
    install_quiet_panic_hook();
    // A panicking job unwinds through the worker loop while other jobs
    // still hold queue turns; the batch must still produce every slot.
    // (Lock poisoning itself is exercised indirectly: worker panics are
    // caught *inside* the job, so the queue mutex is never poisoned by a
    // job body — this guards the recovery path stays compiled in.)
    let jobs = Square::batch_with_bombs(20, &[3, 11, 17]);
    let exec = Executor::new(4);
    let results = exec.run_all_checked(&jobs);
    assert_eq!(results.len(), 20);
    assert_eq!(results.iter().filter(|r| r.is_err()).count(), 3);
}
