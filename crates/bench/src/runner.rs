//! The parallel, fault-tolerant experiment executor.
//!
//! [`Runner::run`] evaluates every (approach × dataset × fold) cell of an
//! [`ExperimentSpec`](crate::spec::ExperimentSpec) on a work-stealing pool
//! of scoped worker threads (`std::thread::scope` over a shared atomic
//! queue — no external dependencies). Determinism is structural, not
//! accidental:
//!
//! * each cell's PRNG seed is derived from the experiment seed and the
//!   cell's coordinates ([`crate::spec::cell_seed`]), never from which
//!   worker happened to claim it;
//! * datasets and fold splits are materialised once, up front, and shared
//!   across workers by reference (scoped threads borrow them — no clones);
//! * results are reported in canonical cell order regardless of completion
//!   order.
//!
//! So `--threads 8` and `--threads 1` produce byte-identical
//! [`RunRecord`]s. Each cell itself is single-threaded (the paper times
//! everything single-threaded); parallelism only spreads *different* cells
//! across cores, which also keeps the Fig. 11 timing protocol honest:
//! every timing measurement is one approach on one thread.
//!
//! [`Runner::run_with`] layers fault tolerance on top via a [`RunPolicy`]:
//!
//! * **panic isolation** — every cell runs under `catch_unwind` with a
//!   scoped hook capturing the panic message, so a poisoned solver becomes
//!   a [`CellFailure`] with [`FailureKind::Panicked`] instead of tearing
//!   down the pool;
//! * **per-cell deadlines** — a watchdog thread cancels the cell's
//!   [`Budget`] once `cell_timeout` elapses; solver iteration loops call
//!   `fairlens_budget::checkpoint()` and unwind cooperatively, yielding
//!   [`FailureKind::TimedOut`] with partial timing;
//! * **bounded retries** — transient numeric errors
//!   ([`CoreError::is_transient`]) retry up to `retries` times with
//!   [`retry_seed`]-derived seeds (attempt count lands in the record);
//! * **checkpointed output** — records append to the results JSONL as
//!   cells finish (failures to the `*.failures.jsonl` sidecar), the final
//!   file is rewritten canonically via atomic tmp+rename, and `resume`
//!   preloads completed cells from a previous partial run.

use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Once, PoisonError};
use std::time::{Duration, Instant};

use fairlens_budget::{Budget, Interrupted};
use fairlens_core::{Approach, CoreError};
use fairlens_frame::{split, Dataset};
use fairlens_synth::DatasetKind;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::record::{
    failures_path, read_failures_lossy, read_jsonl_lossy, write_failures_atomic,
    write_jsonl_atomic, RunRecord,
};
pub use crate::record::{CellFailure, FailureKind};
use crate::spec::{dataset_seed, fold_seed, retry_seed, Cell, ExperimentSpec};

/// Poison-tolerant lock: a worker that panicked inside a cell has already
/// been converted to a [`CellFailure`]; its poisoned data is still valid.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Fault-tolerance knobs for [`Runner::run_with`]. The default policy is
/// behaviourally identical to the pre-fault-tolerance runner: no deadline,
/// no retries, no checkpoint file.
#[derive(Debug, Clone, Default)]
pub struct RunPolicy {
    /// Wall-clock budget per cell attempt; `None` = unlimited.
    pub cell_timeout: Option<Duration>,
    /// Extra attempts (with derived seeds) after a transient failure.
    pub retries: u32,
    /// Results file to stream append-only checkpoints into and to rewrite
    /// canonically (atomic tmp+rename) when the run completes. Failures go
    /// to the [`failures_path`] sidecar next to it.
    pub checkpoint: Option<PathBuf>,
    /// A partial results file from an interrupted run; cells whose records
    /// are already present are reused verbatim instead of re-run.
    pub resume: Option<PathBuf>,
    /// Trace sink for phase-level profiling. When set, every dataset
    /// materialisation records a `data/...` track (with a `synth` span)
    /// and every executed cell records a `cell/...` track with
    /// `encode`/`fit`/`predict`/`metrics` spans plus solver iteration
    /// counters. Resumed cells are not re-run and leave no trace. The
    /// caller writes the sink out (see `CommonArgs::finish_trace`).
    pub trace: Option<fairlens_trace::TraceSink>,
    /// Injected faults for tests (see [`FaultSpec`]); when empty, the
    /// `FAIRLENS_FAULT` environment variable is consulted.
    #[cfg(any(test, feature = "fault-inject"))]
    pub faults: Vec<FaultSpec>,
}

/// What a fault injection does to a matching cell.
#[cfg(any(test, feature = "fault-inject"))]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic inside the cell (exercises panic isolation).
    Panic,
    /// Spin forever, polling the budget (exercises the deadline path —
    /// only terminates when a `cell_timeout` is set).
    Hang,
    /// Fail with a transient numeric error on the first `k` attempts
    /// (exercises the retry path).
    Flaky(u32),
}

/// One injected fault, matched by approach name and fold. Parsed from the
/// `FAIRLENS_FAULT` environment variable (`;`-separated):
/// `panic:<approach>:<fold>`, `hang:<approach>:<fold>`,
/// `flaky:<k>:<approach>:<fold>`.
#[cfg(any(test, feature = "fault-inject"))]
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpec {
    /// What to do.
    pub kind: FaultKind,
    /// Approach display name the fault applies to.
    pub approach: String,
    /// Fold index the fault applies to.
    pub fold: usize,
}

#[cfg(any(test, feature = "fault-inject"))]
impl FaultSpec {
    /// Parse a `;`-separated fault list.
    pub fn parse_list(s: &str) -> Result<Vec<FaultSpec>, String> {
        s.split(';')
            .map(str::trim)
            .filter(|p| !p.is_empty())
            .map(Self::parse_one)
            .collect()
    }

    fn parse_one(s: &str) -> Result<FaultSpec, String> {
        let parts: Vec<&str> = s.split(':').collect();
        let fold = |f: &str| f.parse::<usize>().map_err(|_| format!("bad fold in fault {s:?}"));
        match parts.as_slice() {
            ["panic", approach, f] => {
                Ok(FaultSpec { kind: FaultKind::Panic, approach: (*approach).into(), fold: fold(f)? })
            }
            ["hang", approach, f] => {
                Ok(FaultSpec { kind: FaultKind::Hang, approach: (*approach).into(), fold: fold(f)? })
            }
            ["flaky", k, approach, f] => Ok(FaultSpec {
                kind: FaultKind::Flaky(
                    k.parse().map_err(|_| format!("bad flaky count in fault {s:?}"))?,
                ),
                approach: (*approach).into(),
                fold: fold(f)?,
            }),
            _ => Err(format!(
                "bad fault {s:?} (expected panic:<approach>:<fold>, hang:<approach>:<fold> \
                 or flaky:<k>:<approach>:<fold>)"
            )),
        }
    }

    /// Faults from the `FAIRLENS_FAULT` environment variable. Malformed
    /// specs abort the process — this is a test/CI configuration error,
    /// detected before any cell runs.
    pub fn from_env() -> Vec<FaultSpec> {
        match std::env::var("FAIRLENS_FAULT") {
            Ok(v) if !v.trim().is_empty() => {
                Self::parse_list(&v).unwrap_or_else(|e| panic!("FAIRLENS_FAULT: {e}"))
            }
            _ => Vec::new(),
        }
    }
}

#[cfg(any(test, feature = "fault-inject"))]
type Faults = Vec<FaultSpec>;
#[cfg(not(any(test, feature = "fault-inject")))]
type Faults = ();

#[cfg(any(test, feature = "fault-inject"))]
fn apply_faults(
    faults: &[FaultSpec],
    approach: &str,
    fold: usize,
    attempt: u32,
) -> Result<(), CoreError> {
    for f in faults {
        if f.approach != approach || f.fold != fold {
            continue;
        }
        match f.kind {
            FaultKind::Panic => panic!("injected fault: panic in {approach} fold {fold}"),
            FaultKind::Hang => loop {
                fairlens_budget::checkpoint();
                std::thread::sleep(Duration::from_millis(2));
            },
            FaultKind::Flaky(k) => {
                if attempt < k {
                    return Err(CoreError::Numeric(format!(
                        "injected transient fault (attempt {} of {k} doomed)",
                        attempt + 1
                    )));
                }
            }
        }
    }
    Ok(())
}

/// Everything one [`Runner::run`] produced: records in canonical cell
/// order, failures likewise.
#[derive(Debug, Clone, Default)]
pub struct RunBatch {
    /// One record per successful cell, dataset-major / fold / approach.
    pub records: Vec<RunRecord>,
    /// Cells that failed, with the failure taxonomy (the paper's
    /// Calmon-on-Credit fallback is applied before a failure is declared).
    pub failures: Vec<CellFailure>,
    /// Cells reused verbatim from the `resume` file instead of re-run.
    pub resumed: usize,
}

impl RunBatch {
    /// Atomically write the records to a JSON-lines file (see
    /// [`write_jsonl_atomic`]).
    pub fn write_jsonl(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        write_jsonl_atomic(path.as_ref(), &self.records)
    }

    /// Records for one dataset, in cell order.
    pub fn for_dataset<'a>(&'a self, dataset: &'a str) -> impl Iterator<Item = &'a RunRecord> {
        self.records.iter().filter(move |r| r.dataset == dataset)
    }
}

/// The thread-pool executor. `threads` is the pool width; the pool exists
/// only for the duration of one [`Runner::run`] call.
#[derive(Debug, Clone, Copy)]
pub struct Runner {
    threads: usize,
}

impl Runner {
    /// A runner with `threads` workers; `0` means one worker per available
    /// hardware thread.
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        } else {
            threads
        };
        Self { threads }
    }

    /// The resolved pool width.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Evaluate every cell of `spec` with the default (no fault-tolerance)
    /// policy. Byte-identical to the pre-fault-tolerance runner.
    pub fn run(&self, spec: &ExperimentSpec) -> RunBatch {
        self.run_with(spec, &RunPolicy::default())
    }

    /// Evaluate every cell of `spec` under `policy`. Always terminates
    /// with a complete accounting: every cell ends up either in
    /// `records` or in `failures`.
    pub fn run_with(&self, spec: &ExperimentSpec, policy: &RunPolicy) -> RunBatch {
        install_capture_hook();
        let cells = spec.cells();
        let contexts = prepare_contexts(spec, policy.trace.as_ref());

        #[cfg(any(test, feature = "fault-inject"))]
        let faults: Faults =
            if policy.faults.is_empty() { FaultSpec::from_env() } else { policy.faults.clone() };
        #[cfg(not(any(test, feature = "fault-inject")))]
        let faults: Faults = ();

        // Resume: reuse records from a previous partial run. A record is
        // the same cell iff approach, dataset, fold and derived seed all
        // match — plus rows (the Fig. 11 size sweep stores many specs in
        // one file) and, under an attribute sweep, attrs. `attrs` is NOT
        // matched otherwise: the Calmon-on-Credit fallback legitimately
        // records fewer attributes than the dataset has.
        //
        // Records and failures that match no cell of this spec are *carried*:
        // they re-appear ahead of this spec's rows in the finalized file.
        // That is what lets the multi-spec binaries (Fig. 11, ablations) run
        // several specs against one shared checkpoint file — each spec
        // resumes from the file and carries every other spec's rows through.
        let mut prefilled: Vec<Option<RunRecord>> = (0..cells.len()).map(|_| None).collect();
        let mut resumed = 0usize;
        let mut carried_records: Vec<RunRecord> = Vec::new();
        let mut carried_failures: Vec<CellFailure> = Vec::new();
        if let Some(path) = &policy.resume {
            match read_jsonl_lossy(path) {
                Ok((loaded, skipped)) => {
                    if skipped > 0 {
                        eprintln!(
                            "[runner] resume: skipped {skipped} unparseable line(s) in {}",
                            path.display()
                        );
                    }
                    // Option slots so matched records can be taken without
                    // disturbing the file order of the unmatched remainder.
                    let mut loaded: Vec<Option<RunRecord>> =
                        loaded.into_iter().map(Some).collect();
                    for (slot, cell) in prefilled.iter_mut().zip(&cells) {
                        let Ok(approach) = &cell.approach else { continue };
                        let Some(ctx) = contexts.iter().find(|c| c.kind == cell.dataset) else {
                            continue;
                        };
                        let matched = loaded.iter().position(|entry| {
                            entry.as_ref().is_some_and(|r| {
                                r.approach == approach.name
                                    && r.dataset == cell.dataset.name()
                                    && r.fold == cell.fold
                                    && r.seed == cell.seed
                                    && r.rows == ctx.full.n_rows()
                                    && match spec.attr_limit() {
                                        Some(_) => r.attrs == ctx.full.n_attrs(),
                                        None => true,
                                    }
                            })
                        });
                        if let Some(pos) = matched {
                            *slot = loaded[pos].take();
                            resumed += 1;
                        }
                    }
                    carried_records = loaded.into_iter().flatten().collect();
                }
                // A fresh multi-spec run resumes from a not-yet-created
                // shared file on its first spec; that is not worth a warning.
                Err(e) if !path.exists() => {
                    let _ = e;
                }
                Err(e) => eprintln!(
                    "[runner] resume: could not read {}: {e} (running every cell)",
                    path.display()
                ),
            }
            // Failures recorded for cells of *this* spec are dropped (those
            // cells are about to be re-attempted); the rest are carried.
            match read_failures_lossy(&failures_path(path)) {
                Ok((old, skipped)) => {
                    if skipped > 0 {
                        eprintln!(
                            "[runner] resume: skipped {skipped} unparseable failure line(s) in {}",
                            failures_path(path).display()
                        );
                    }
                    carried_failures = old
                        .into_iter()
                        .filter(|f| {
                            !cells.iter().any(|cell| {
                                cell.dataset.name() == f.dataset
                                    && cell.fold == f.fold
                                    && match &cell.approach {
                                        Ok(a) => a.name == f.approach,
                                        Err(_) => f.approach == "<unresolved>",
                                    }
                            })
                        })
                        .collect();
                }
                Err(e) => eprintln!("[runner] resume: ignoring unreadable failures sidecar: {e}"),
            }
        }

        let sink = policy.checkpoint.as_ref().and_then(|p| match CheckpointSink::open(p) {
            Ok(s) => Some(s),
            Err(e) => {
                eprintln!("[runner] cannot open checkpoint {}: {e}", p.display());
                None
            }
        });
        let watchdog = policy.cell_timeout.map(|_| Watchdog::spawn());

        let pending: Vec<usize> = (0..cells.len()).filter(|&i| prefilled[i].is_none()).collect();
        let run_one = |i: usize| -> (usize, Outcome) {
            let outcome =
                execute_cell(spec, &cells[i], &contexts, policy, watchdog.as_ref(), &faults);
            if let Some(sink) = &sink {
                match &outcome {
                    Ok(r) => sink.append_record(r),
                    Err(f) => sink.append_failure(f),
                }
            }
            (i, outcome)
        };

        let mut outcomes: Vec<(usize, Outcome)> = if self.threads <= 1 || pending.len() <= 1 {
            // Sequential reference path: same per-cell code, no pool.
            pending.iter().map(|&i| run_one(i)).collect()
        } else {
            let next = AtomicUsize::new(0);
            let collected: Mutex<Vec<(usize, Outcome)>> =
                Mutex::new(Vec::with_capacity(pending.len()));
            std::thread::scope(|s| {
                for _ in 0..self.threads.min(pending.len()) {
                    s.spawn(|| {
                        // Claim cells off the shared queue until it drains;
                        // buffer outcomes locally so the mutex is touched
                        // once per worker, not once per cell.
                        let mut local = Vec::new();
                        loop {
                            let qi = next.fetch_add(1, Ordering::Relaxed);
                            if qi >= pending.len() {
                                break;
                            }
                            local.push(run_one(pending[qi]));
                        }
                        lock_unpoisoned(&collected).extend(local);
                    });
                }
            });
            collected.into_inner().unwrap_or_else(PoisonError::into_inner)
        };
        outcomes.sort_by_key(|(i, _)| *i);

        let mut batch = RunBatch { records: Vec::new(), failures: Vec::new(), resumed };
        let mut outcome_iter = outcomes.into_iter();
        for (i, slot) in prefilled.into_iter().enumerate() {
            if let Some(record) = slot {
                batch.records.push(record);
                continue;
            }
            match outcome_iter.next() {
                Some((oi, Ok(record))) if oi == i => batch.records.push(record),
                Some((oi, Err(failure))) if oi == i => batch.failures.push(failure),
                _ => unreachable!("every pending cell yields exactly one outcome"),
            }
        }

        if let Some(path) = &policy.checkpoint {
            drop(sink); // flush the append log before rewriting canonically
            if !carried_records.is_empty() || !carried_failures.is_empty() {
                eprintln!(
                    "[runner] carrying {} record(s) / {} failure(s) from outside this spec",
                    carried_records.len(),
                    carried_failures.len()
                );
            }
            let mut all_records = carried_records;
            all_records.extend(batch.records.iter().cloned());
            if let Err(e) = write_jsonl_atomic(path, &all_records) {
                eprintln!("[runner] cannot finalize {}: {e}", path.display());
            }
            let mut all_failures = carried_failures;
            all_failures.extend(batch.failures.iter().cloned());
            let sidecar = failures_path(path);
            if let Err(e) = write_failures_atomic(&sidecar, &all_failures) {
                eprintln!("[runner] cannot finalize {}: {e}", sidecar.display());
            }
        }
        batch
    }
}

type Outcome = Result<RunRecord, CellFailure>;

// ---------------------------------------------------------------------------
// Checkpoint streaming

/// Append-only record/failure log, flushed per line so a killed run keeps
/// every completed cell. The sidecar is opened lazily: a clean run never
/// creates one.
struct CheckpointSink {
    path: PathBuf,
    records: Mutex<std::io::BufWriter<std::fs::File>>,
    failures: Mutex<Option<std::io::BufWriter<std::fs::File>>>,
}

impl CheckpointSink {
    fn open(path: &Path) -> std::io::Result<Self> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
        Ok(Self {
            path: path.to_owned(),
            records: Mutex::new(std::io::BufWriter::new(file)),
            failures: Mutex::new(None),
        })
    }

    fn append_record(&self, record: &RunRecord) {
        use std::io::Write as _;
        let mut w = lock_unpoisoned(&self.records);
        if let Err(e) = writeln!(w, "{}", record.to_json()).and_then(|()| w.flush()) {
            eprintln!("[runner] checkpoint append failed: {e}");
        }
    }

    fn append_failure(&self, failure: &CellFailure) {
        use std::io::Write as _;
        let mut slot = lock_unpoisoned(&self.failures);
        if slot.is_none() {
            let sidecar = failures_path(&self.path);
            match std::fs::OpenOptions::new().create(true).append(true).open(&sidecar) {
                Ok(file) => *slot = Some(std::io::BufWriter::new(file)),
                Err(e) => {
                    eprintln!("[runner] cannot open {}: {e}", sidecar.display());
                    return;
                }
            }
        }
        let w = slot.as_mut().expect("sidecar opened above");
        if let Err(e) = writeln!(w, "{}", failure.to_json()).and_then(|()| w.flush()) {
            eprintln!("[runner] failure append failed: {e}");
        }
    }
}

// ---------------------------------------------------------------------------
// Watchdog

/// Deadline enforcement: a single polling thread cancels the [`Budget`] of
/// any registered cell whose deadline has passed. The cell itself unwinds
/// at its next `fairlens_budget::checkpoint()` call — cancellation is
/// cooperative, never preemptive, so no state is corrupted.
struct Watchdog {
    inner: Arc<WatchdogInner>,
    handle: Option<std::thread::JoinHandle<()>>,
}

struct WatchdogInner {
    done: AtomicBool,
    next_id: AtomicU64,
    entries: Mutex<Vec<(u64, Instant, Budget)>>,
}

impl Watchdog {
    fn spawn() -> Self {
        let inner = Arc::new(WatchdogInner {
            done: AtomicBool::new(false),
            next_id: AtomicU64::new(0),
            entries: Mutex::new(Vec::new()),
        });
        let poll = Arc::clone(&inner);
        let handle = std::thread::Builder::new()
            .name("fairlens-watchdog".into())
            .spawn(move || {
                while !poll.done.load(Ordering::Acquire) {
                    let now = Instant::now();
                    for (_, deadline, budget) in lock_unpoisoned(&poll.entries).iter() {
                        if *deadline <= now {
                            budget.cancel();
                        }
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
            })
            .expect("spawn watchdog thread");
        Self { inner, handle: Some(handle) }
    }

    fn watch(&self, deadline: Instant, budget: Budget) -> WatchGuard {
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        lock_unpoisoned(&self.inner.entries).push((id, deadline, budget));
        WatchGuard { inner: Arc::clone(&self.inner), id }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.inner.done.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// RAII deregistration from the watchdog when a cell attempt finishes.
struct WatchGuard {
    inner: Arc<WatchdogInner>,
    id: u64,
}

impl Drop for WatchGuard {
    fn drop(&mut self) {
        lock_unpoisoned(&self.inner.entries).retain(|(id, _, _)| *id != self.id);
    }
}

// ---------------------------------------------------------------------------
// Panic capture

thread_local! {
    static CAPTURING: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    static PANIC_MSG: std::cell::RefCell<Option<String>> =
        const { std::cell::RefCell::new(None) };
}

static INSTALL_HOOK: Once = Once::new();

/// Install the process-wide panic hook once. Threads running a cell set
/// the thread-local `CAPTURING` flag, which routes their panic message
/// (with source location) into `PANIC_MSG` instead of stderr; all other
/// threads keep the previous hook's behaviour.
fn install_capture_hook() {
    INSTALL_HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            let capturing = CAPTURING.try_with(std::cell::Cell::get).unwrap_or(false);
            if !capturing {
                prev(info);
                return;
            }
            if info.payload().downcast_ref::<Interrupted>().is_some() {
                return; // budget expiry unwind, not a real panic
            }
            let msg = if let Some(s) = info.payload().downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = info.payload().downcast_ref::<String>() {
                s.clone()
            } else {
                "non-string panic payload".to_string()
            };
            let loc = info
                .location()
                .map(|l| format!(" at {}:{}", l.file(), l.line()))
                .unwrap_or_default();
            let _ = PANIC_MSG.try_with(|m| *m.borrow_mut() = Some(format!("{msg}{loc}")));
        }));
    });
}

// ---------------------------------------------------------------------------
// Cell execution

/// Per-dataset shared inputs: the generated dataset and its fold splits,
/// borrowed (not cloned) by every worker.
struct DataContext {
    kind: DatasetKind,
    full: Dataset,
    folds: Vec<(Dataset, Dataset)>,
}

/// Materialise every dataset and fold split once, before the pool starts.
/// Generation/split seeds exclude the approach name, so all approaches in
/// a fold compare on identical data. With tracing enabled, each dataset
/// records a `data/<name>/r<rows>[/a<k>]` track whose `synth` span covers
/// generation, attribute projection, and fold splitting; this happens
/// sequentially before the pool, so trace order is thread-count-invariant.
fn prepare_contexts(
    spec: &ExperimentSpec,
    trace: Option<&fairlens_trace::TraceSink>,
) -> Vec<DataContext> {
    let mut out: Vec<DataContext> = Vec::new();
    for &kind in spec.dataset_list() {
        if out.iter().any(|c| c.kind == kind) {
            continue;
        }
        let n = spec.scale_spec().rows(kind);
        let _collect = trace.map(|sink| {
            let mut track = format!("data/{}/r{n}", kind.name());
            if let Some(k) = spec.attr_limit() {
                track.push_str(&format!("/a{k}"));
            }
            sink.collect(track)
        });
        let _synth = fairlens_trace::span("synth");
        let mut full = kind.generate(n, dataset_seed(spec.seed, kind.name()));
        if let Some(k) = spec.attr_limit() {
            let idx: Vec<usize> = (0..k.min(full.n_attrs())).collect();
            full = full.select_attrs(&idx);
        }
        let folds = if spec.is_timing_only() {
            Vec::new() // timing cells train on the full dataset
        } else {
            (0..spec.fold_count())
                .map(|fold| {
                    let mut rng =
                        StdRng::seed_from_u64(fold_seed(spec.seed, kind.name(), fold));
                    split::train_test_split(&full, spec.test_fraction(), &mut rng)
                })
                .collect()
        };
        out.push(DataContext { kind, full, folds });
    }
    out
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn timed_fit(
    approach: &Approach,
    train: &Dataset,
    seed: u64,
) -> Result<(fairlens_core::FittedPipeline, f64), CoreError> {
    // The span brackets exactly the region `fit_ms` measures, so the trace
    // and the RunRecord agree on what "fit" cost.
    let _span = fairlens_trace::span("fit");
    let t0 = Instant::now();
    let fitted = approach.fit(train, seed)?;
    Ok((fitted, ms(t0.elapsed())))
}

/// A failed attempt: the structured error (for retry classification) plus
/// the display message (which may carry extra context, e.g. the
/// Calmon-on-Credit fallback chain).
type AttemptError = (CoreError, String);

/// Run one cell under the policy: panic isolation, deadline registration,
/// and the bounded retry loop. Runs entirely on the claiming worker.
fn execute_cell(
    spec: &ExperimentSpec,
    cell: &Cell,
    contexts: &[DataContext],
    policy: &RunPolicy,
    watchdog: Option<&Watchdog>,
    faults: &Faults,
) -> Outcome {
    let started = Instant::now();
    let dataset_name = cell.dataset.name();
    let approach = match &cell.approach {
        Ok(a) => a,
        Err(e) => {
            return Err(CellFailure {
                approach: "<unresolved>".into(),
                dataset: dataset_name.into(),
                fold: cell.fold,
                kind: FailureKind::TrainError,
                error: e.clone(),
                attempts: 0,
                elapsed_ms: 0.0,
            })
        }
    };
    let fail = |kind: FailureKind, error: String, attempts: u32| CellFailure {
        approach: approach.name.to_string(),
        dataset: dataset_name.to_string(),
        fold: cell.fold,
        kind,
        error,
        attempts,
        elapsed_ms: ms(started.elapsed()),
    };

    // One trace track per cell, covering every attempt. The track name
    // carries the same identity fields the resume matcher uses, so
    // `trace_report --results` can join tracks back onto RunRecords.
    let _collect = policy.trace.as_ref().and_then(|sink| {
        let ctx = contexts.iter().find(|c| c.kind == cell.dataset)?;
        Some(sink.collect(format!(
            "cell/{dataset_name}/r{}/a{}/f{}/{}",
            ctx.full.n_rows(),
            ctx.full.n_attrs(),
            cell.fold,
            approach.name
        )))
    });

    let max_attempts = policy.retries.saturating_add(1);
    for attempt in 0..max_attempts {
        let seed = retry_seed(cell.seed, attempt);
        let budget = Budget::new();
        let _watch = match (watchdog, policy.cell_timeout) {
            (Some(w), Some(t)) => Some(w.watch(Instant::now() + t, budget.clone())),
            _ => None,
        };
        let caught = {
            let _installed = budget.install();
            CAPTURING.with(|c| c.set(true));
            PANIC_MSG.with(|m| m.borrow_mut().take());
            let result = panic::catch_unwind(AssertUnwindSafe(|| {
                run_cell_attempt(spec, cell, approach, contexts, seed, attempt, faults)
            }));
            CAPTURING.with(|c| c.set(false));
            result
        };
        match caught {
            Ok(Ok(mut record)) => {
                record.attempts = attempt + 1;
                return Ok(record);
            }
            Ok(Err((error, message))) => {
                if error.is_transient() && attempt + 1 < max_attempts {
                    continue; // retry with the next derived seed
                }
                let kind = if error.is_transient() {
                    FailureKind::ExhaustedRetries
                } else {
                    FailureKind::TrainError
                };
                return Err(fail(kind, message, attempt + 1));
            }
            Err(payload) => {
                if payload.downcast_ref::<Interrupted>().is_some() {
                    let limit = policy
                        .cell_timeout
                        .map(|t| format!("{:.1}s", t.as_secs_f64()))
                        .unwrap_or_else(|| "?".into());
                    return Err(fail(
                        FailureKind::TimedOut,
                        format!("exceeded the {limit} cell deadline"),
                        attempt + 1,
                    ));
                }
                let message = PANIC_MSG
                    .with(|m| m.borrow_mut().take())
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".into());
                return Err(fail(FailureKind::Panicked, message, attempt + 1));
            }
        }
    }
    unreachable!("the attempt loop always returns")
}

/// Evaluate one cell attempt. Every random draw comes from `seed` (the
/// cell's own derived seed, or a retry-derived one), but the record keeps
/// the canonical cell seed as its identity.
fn run_cell_attempt(
    spec: &ExperimentSpec,
    cell: &Cell,
    approach: &Approach,
    contexts: &[DataContext],
    seed: u64,
    attempt: u32,
    faults: &Faults,
) -> Result<RunRecord, AttemptError> {
    let to_err = |e: CoreError| -> AttemptError {
        let message = e.to_string();
        (e, message)
    };
    #[cfg(any(test, feature = "fault-inject"))]
    apply_faults(faults, approach.name, cell.fold, attempt).map_err(to_err)?;
    #[cfg(not(any(test, feature = "fault-inject")))]
    let _ = (faults, attempt);

    let dataset_name = cell.dataset.name();
    let ctx = contexts.iter().find(|c| c.kind == cell.dataset).ok_or_else(|| {
        to_err(CoreError::BadInput(format!("no data context prepared for {dataset_name}")))
    })?;

    if spec.is_timing_only() {
        // Fig. 11 protocol: time training (and one prediction pass) on the
        // full dataset, no metric suite. The fold index distinguishes
        // repeated measurements (each with its own derived seed).
        let (fitted, fit_ms) = timed_fit(approach, &ctx.full, seed).map_err(to_err)?;
        let t0 = Instant::now();
        {
            let _span = fairlens_trace::span("predict");
            let _ = fitted.predict(&ctx.full);
        }
        return Ok(RunRecord {
            approach: approach.name.into(),
            stage: approach.stage.label().into(),
            dataset: dataset_name.into(),
            fold: cell.fold,
            seed: cell.seed,
            rows: ctx.full.n_rows(),
            attrs: ctx.full.n_attrs(),
            metrics: None,
            fit_ms,
            predict_ms: ms(t0.elapsed()),
            attempts: 1,
        });
    }

    let (train, test) = &ctx.folds[cell.fold];

    // The paper: "Calmon failed to complete on the Credit dataset due to
    // the large number of attributes (26); we display its performance over
    // 22 attributes (the most it could handle)."
    let mut projected_test: Option<Dataset> = None;
    let (fitted, fit_ms) = match timed_fit(approach, train, seed) {
        Ok(ok) => ok,
        Err(first_err)
            if approach.name == "Calmon^DP"
                && cell.dataset == DatasetKind::Credit
                && spec.attr_limit().is_none() =>
        {
            let idx: Vec<usize> = (0..22).collect();
            let train22 = train.select_attrs(&idx);
            projected_test = Some(test.select_attrs(&idx));
            timed_fit(approach, &train22, seed)
                .map_err(|e| (e.clone(), format!("{first_err}; 22-attr retry: {e}")))?
        }
        Err(e) => return Err(to_err(e)),
    };
    let test = projected_test.as_ref().unwrap_or(test);

    let t0 = Instant::now();
    let preds = {
        let _span = fairlens_trace::span("predict");
        fitted.predict(test)
    };
    let predict_ms = ms(t0.elapsed());

    let report = {
        let _span = fairlens_trace::span("metrics");
        crate::metric_suite(&fitted, cell.dataset, test, &preds, seed, spec.cd_bound_values())
    };

    Ok(RunRecord {
        approach: approach.name.into(),
        stage: approach.stage.label().into(),
        dataset: dataset_name.into(),
        fold: cell.fold,
        seed: cell.seed,
        rows: ctx.full.n_rows(),
        attrs: test.n_attrs(), // 22 under the Calmon-on-Credit fallback
        metrics: Some(report.values()),
        fit_ms,
        predict_ms,
        attempts: 1,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ApproachSelector, ScaleSpec};

    fn tiny_spec() -> ExperimentSpec {
        ExperimentSpec::new(11)
            .datasets([DatasetKind::German])
            .approaches(ApproachSelector::Named(vec![
                "KamCal^DP".into(),
                "Hardt^EO".into(),
            ]))
            .scale(ScaleSpec::Rows(300))
            .folds(2)
            .cd_bounds(0.9, 0.08)
    }

    /// Everything except the wall-clock fields, bit-exact.
    fn key(r: &RunRecord) -> (String, String, String, usize, u64, u32, Option<[u64; 9]>) {
        (
            r.approach.clone(),
            r.stage.clone(),
            r.dataset.clone(),
            r.fold,
            r.seed,
            r.attempts,
            r.metrics.map(|m| m.map(f64::to_bits)),
        )
    }

    #[test]
    fn parallel_matches_sequential_byte_for_byte() {
        let spec = tiny_spec();
        let sequential = Runner::new(1).run(&spec);
        let parallel = Runner::new(4).run(&spec);
        assert_eq!(sequential.records.len(), 3 * 2); // (LR + 2) × 2 folds
        assert!(sequential.failures.is_empty(), "{:?}", sequential.failures);
        let a: Vec<_> = sequential.records.iter().map(key).collect();
        let b: Vec<_> = parallel.records.iter().map(key).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn run_with_default_policy_matches_run() {
        let spec = tiny_spec();
        let plain = Runner::new(2).run(&spec);
        let policied = Runner::new(2).run_with(&spec, &RunPolicy::default());
        let a: Vec<_> = plain.records.iter().map(key).collect();
        let b: Vec<_> = policied.records.iter().map(key).collect();
        assert_eq!(a, b);
        assert_eq!(policied.resumed, 0);
    }

    #[test]
    fn timing_only_cells_skip_metrics() {
        let spec = ExperimentSpec::new(3)
            .datasets([DatasetKind::German])
            .approaches(ApproachSelector::Named(vec!["KamCal^DP".into()]))
            .scale(ScaleSpec::Rows(200))
            .timing_only(true);
        let batch = Runner::new(2).run(&spec);
        assert_eq!(batch.records.len(), 2); // LR + KamCal
        for r in &batch.records {
            assert!(r.metrics.is_none());
            assert!(r.fit_ms >= 0.0 && r.predict_ms >= 0.0);
        }
    }

    #[test]
    fn unknown_approach_becomes_failure_not_panic() {
        let spec = ExperimentSpec::new(3)
            .datasets([DatasetKind::German])
            .approaches(ApproachSelector::Named(vec!["NoSuch".into()]))
            .scale(ScaleSpec::Rows(150))
            .baseline(false);
        let batch = Runner::new(2).run(&spec);
        assert!(batch.records.is_empty());
        assert_eq!(batch.failures.len(), 1);
        assert_eq!(batch.failures[0].kind, FailureKind::TrainError);
        assert!(batch.failures[0].error.contains("NoSuch"));
    }

    #[test]
    fn runner_zero_resolves_to_hardware_threads() {
        assert!(Runner::new(0).threads() >= 1);
        assert_eq!(Runner::new(3).threads(), 3);
    }

    #[test]
    fn injected_panic_is_isolated_and_other_cells_unaffected() {
        let spec = tiny_spec();
        let clean = Runner::new(2).run(&spec);
        let policy = RunPolicy {
            faults: vec![FaultSpec {
                kind: FaultKind::Panic,
                approach: "Hardt^EO".into(),
                fold: 1,
            }],
            ..Default::default()
        };
        let faulty = Runner::new(2).run_with(&spec, &policy);
        assert_eq!(faulty.failures.len(), 1, "{:?}", faulty.failures);
        let f = &faulty.failures[0];
        assert_eq!((f.kind, f.approach.as_str(), f.fold), (FailureKind::Panicked, "Hardt^EO", 1));
        assert!(f.error.contains("injected fault"), "{}", f.error);
        assert!(f.error.contains("runner.rs"), "panic location missing: {}", f.error);
        // every other cell is bit-identical to the fault-free run
        let expect: Vec<_> = clean
            .records
            .iter()
            .filter(|r| !(r.approach == "Hardt^EO" && r.fold == 1))
            .map(key)
            .collect();
        let got: Vec<_> = faulty.records.iter().map(key).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn hang_is_cancelled_at_the_deadline() {
        let spec = tiny_spec();
        let policy = RunPolicy {
            cell_timeout: Some(Duration::from_millis(300)),
            faults: vec![FaultSpec {
                kind: FaultKind::Hang,
                approach: "KamCal^DP".into(),
                fold: 0,
            }],
            ..Default::default()
        };
        // single worker: the watchdog must fire on the sequential path too
        let batch = Runner::new(1).run_with(&spec, &policy);
        assert_eq!(batch.failures.len(), 1, "{:?}", batch.failures);
        let f = &batch.failures[0];
        assert_eq!(f.kind, FailureKind::TimedOut);
        assert!(f.error.contains("deadline"), "{}", f.error);
        assert!(f.elapsed_ms >= 250.0, "partial timing too small: {}", f.elapsed_ms);
        assert_eq!(batch.records.len(), 3 * 2 - 1);
    }

    #[test]
    fn flaky_cell_retries_to_success_with_derived_seeds() {
        let spec = tiny_spec();
        let policy = RunPolicy {
            retries: 2,
            faults: vec![FaultSpec {
                kind: FaultKind::Flaky(2),
                approach: "KamCal^DP".into(),
                fold: 0,
            }],
            ..Default::default()
        };
        let batch = Runner::new(2).run_with(&spec, &policy);
        assert!(batch.failures.is_empty(), "{:?}", batch.failures);
        assert_eq!(batch.records.len(), 3 * 2);
        for r in &batch.records {
            let expect = if r.approach == "KamCal^DP" && r.fold == 0 { 3 } else { 1 };
            assert_eq!(r.attempts, expect, "{} fold {}", r.approach, r.fold);
        }
    }

    #[test]
    fn flaky_cell_exhausts_bounded_retries() {
        let spec = tiny_spec();
        let policy = RunPolicy {
            retries: 1,
            faults: vec![FaultSpec {
                kind: FaultKind::Flaky(5),
                approach: "KamCal^DP".into(),
                fold: 0,
            }],
            ..Default::default()
        };
        let batch = Runner::new(2).run_with(&spec, &policy);
        assert_eq!(batch.failures.len(), 1);
        let f = &batch.failures[0];
        assert_eq!(f.kind, FailureKind::ExhaustedRetries);
        assert_eq!(f.attempts, 2); // first try + one retry
        assert_eq!(batch.records.len(), 3 * 2 - 1);
    }

    #[test]
    fn checkpoint_finalizes_canonically_and_resume_reuses_records() {
        let dir = std::env::temp_dir().join("fairlens_runner_ckpt_test");
        std::fs::remove_dir_all(&dir).ok();
        let path = dir.join("out.jsonl");
        let spec = tiny_spec();
        let first = Runner::new(2)
            .run_with(&spec, &RunPolicy { checkpoint: Some(path.clone()), ..Default::default() });
        // the finalized file holds the canonical records, in order
        let on_disk = crate::record::read_jsonl(&path).unwrap();
        assert_eq!(on_disk, first.records);
        assert!(!failures_path(&path).exists(), "clean run must leave no sidecar");
        // resuming from a complete file re-runs nothing, timings included
        let second = Runner::new(2)
            .run_with(&spec, &RunPolicy { resume: Some(path.clone()), ..Default::default() });
        assert_eq!(second.resumed, first.records.len());
        assert_eq!(second.records, first.records);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fault_spec_parsing() {
        let faults =
            FaultSpec::parse_list("panic:Hardt^EO:3; flaky:2:KamCal^DP:0;hang:Pleiss^EOP:5")
                .unwrap();
        assert_eq!(
            faults,
            vec![
                FaultSpec { kind: FaultKind::Panic, approach: "Hardt^EO".into(), fold: 3 },
                FaultSpec { kind: FaultKind::Flaky(2), approach: "KamCal^DP".into(), fold: 0 },
                FaultSpec { kind: FaultKind::Hang, approach: "Pleiss^EOP".into(), fold: 5 },
            ]
        );
        assert!(FaultSpec::parse_list("melt:X:0").is_err());
        assert!(FaultSpec::parse_list("flaky:lots:X:0").is_err());
        assert!(FaultSpec::parse_list("panic:X:first").is_err());
    }
}
