//! Solver benchmark: time to solution, set-up time and memory of the DDM-GNN
//! hybrid solver and its exact baseline, with a per-layer traced run.
//!
//! ```text
//! cargo bench --manifest-path solverbench/Cargo.toml --bench solverbench -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1> [--problem-seed <n>]
//! ```
//!
//! Each workload runs in this one process, on a thread pool of
//! `available_parallelism` threads (`RAYON_NUM_THREADS` is set to it).  The
//! problem comes from `generate_problem(problem_seed, n)`, partitioned into
//! ~300-node sub-domains with overlap 2; PCG runs to relative tolerance
//! 1e-6.  `--seed` seeds the stream of right-hand sides: member 0 is the
//! problem's own right-hand side (whose f64 trajectory hash is pinned at
//! the default problem seed), members 1.. are drawn from the paper's data
//! distribution on the same mesh.  The stream holds eight calls' worth of
//! columns, built before any set-up, and repeats after that.
//!
//! `--trace 0` sets the preconditioner up three times (`setup_s` is the
//! median), then solves the stream for `--seconds` (`solve_s` is the median
//! call) and reports `peak_rss_mb`.  `--trace 1` is a separate run that
//! times the layers from outside: spans around every preconditioner apply
//! (and its local and coarse halves, or its ladder tiers) in one traced
//! solve, plus probes of SpMV, the coarse space, exact Schwarz, the
//! resilience guards, per sub-domain GNN inference, a single-thread apply
//! and a STREAM triad.  Layers a workload's solve does not run are probed
//! on its problem all the same (a multi-level f64 DDM-GNN for exact
//! Schwarz, a guarded apply for the unguarded workloads), so every
//! per-layer time is a measurement.
//! Spans are written to `solverbench/.solverbench/trace-<workload>-seed<seed>.json`
//! (`cargo bench` runs the binary from the package directory).
//!
//! Every column is checked (convergence, true relative residual, pinned
//! hash); a failure counts in `failed` and never aborts the run.  The last
//! stdout line is the result object.

mod adapter;
mod trace;

use std::process::ExitCode;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::{Duration, Instant};

use adapter::{Column, Precond, Problem, Solver, Traceable};
use solverbench::{median, Args, Json, Kind, Metric, Span, Workload};
use trace::Recorder;

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Solve calls per end-to-end run at least, whatever `--seconds` says.
const MIN_CALLS: usize = 3;
/// Distinct solve calls in the right-hand-side stream before it repeats.
const RHS_POOL_CALLS: u64 = 8;
/// Samples of each probe's per-call time.
const PROBE_SAMPLES: usize = 5;
/// A probe sample lasts at least this long (short calls are repeated).
const PROBE_FLOOR: Duration = Duration::from_millis(20);
/// LLC assumed when the host does not report one.
const FALLBACK_LLC_BYTES: u64 = 128 << 20;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match solverbench::parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("solverbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    // Before the pool's first use, which reads it once.
    std::env::set_var("RAYON_NUM_THREADS", nproc.to_string());
    let host = Host::detect(nproc);

    let w = args.workload;
    // Exact Schwarz needs the model only for the traced run's GNN probe.
    let model = match (w.kind, args.trace) {
        (Kind::LuStream, false) => None,
        _ => match adapter::load_model() {
            Some(m) => Some(m),
            None => {
                eprintln!("solverbench: the pre-trained DSS model is missing");
                return ExitCode::from(1);
            }
        },
    };
    let problem = adapter::generate_problem(args.problem_seed, w.target_nodes);
    let mut run = Run::new(&args, &problem);
    let metrics = if args.trace {
        traced(&args, &problem, model.as_ref(), &host, &mut run)
    } else {
        end_to_end(&args, &problem, model.as_ref(), &mut run)
    };

    println!("{}", Json::obj([("record", record(&args, &host, &problem, &run))]).render());
    for m in &metrics {
        println!("# {:<24} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "# fail_ratio {} ({} of {} columns failed)",
        solverbench::fail_ratio(run.failed, run.attempted),
        run.failed,
        run.attempted
    );
    println!("{}", solverbench::result_line(run.attempted, run.failed, &metrics));
    ExitCode::SUCCESS
}

/// Host facts recorded with every result.
struct Host {
    cpu: String,
    nproc: usize,
    llc_bytes: Option<u64>,
    threads: usize,
}

impl Host {
    fn detect(nproc: usize) -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let llc_bytes = (0..8)
            .filter_map(|i| {
                let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
                let level = std::fs::read_to_string(format!("{dir}/level")).ok()?;
                let size = std::fs::read_to_string(format!("{dir}/size")).ok()?;
                Some((level.trim().parse::<u32>().ok()?, solverbench::parse_cache_size(&size)?))
            })
            .max()
            .map(|(_, bytes)| bytes);
        Host { cpu, nproc, llc_bytes, threads: adapter::pool_threads() }
    }

    fn llc(&self) -> u64 {
        self.llc_bytes.unwrap_or(FALLBACK_LLC_BYTES)
    }
}

/// Column tally, samples and facts of one run.
struct Run<'a> {
    workload: &'a Workload,
    problem: &'a Problem,
    problem_seed_is_default: bool,
    attempted: u64,
    failed: u64,
    solve_samples: usize,
    setup_samples: usize,
    subdomains: usize,
    triad_array_bytes: u64,
    /// The right-hand-side stream, generated before any set-up so that
    /// its assembly stays out of the measured phases; calls cycle through
    /// it.
    rhs: Vec<Vec<f64>>,
    /// Calls' columns handed out so far.
    next: u64,
}

impl<'a> Run<'a> {
    fn new(args: &'a Args, problem: &'a Problem) -> Self {
        Run {
            workload: args.workload,
            problem,
            problem_seed_is_default: args.problem_seed == args.workload.default_problem_seed,
            attempted: 0,
            failed: 0,
            solve_samples: 0,
            setup_samples: 0,
            subdomains: 0,
            triad_array_bytes: 0,
            rhs: (0..RHS_POOL_CALLS * args.workload.batch as u64)
                .map(|k| match k {
                    0 => adapter::own_rhs(problem),
                    k => adapter::stream_rhs(problem, solverbench::rhs_seed(args.seed, k)),
                })
                .collect(),
            next: 0,
        }
    }

    /// The next call's `batch` right-hand sides with their stream indices.
    fn take_rhs(&mut self) -> Vec<(u64, Vec<f64>)> {
        (0..self.workload.batch)
            .map(|_| {
                let k = self.next % self.rhs.len() as u64;
                self.next += 1;
                (k, self.rhs[k as usize].clone())
            })
            .collect()
    }

    /// Check one solved column; a failure is counted, reported and never
    /// fatal.
    fn check(&mut self, k: u64, col: &Column) {
        self.attempted += 1;
        let pinned = self.workload.pinned_hash.filter(|_| k == 0 && self.problem_seed_is_default);
        let mut why = Vec::new();
        if !col.converged {
            why.push(format!("did not converge in {} iterations", col.iterations));
        }
        let rr = col.true_relative_residual;
        if rr.is_nan() || rr > solverbench::TOLERANCE {
            why.push(format!("true relative residual {rr:e}"));
        }
        if let Some(p) = pinned {
            if col.hash != p {
                why.push(format!("trajectory hash {:016x}, pinned {p:016x}", col.hash));
            }
        }
        if !why.is_empty() {
            self.failed += 1;
            eprintln!("solverbench: stream member {k} failed: {}", why.join("; "));
        }
    }
}

/// Solve one call's columns (one PCG, or one lockstep batch) and check
/// them.  Returns the call's wall seconds and its columns.
fn solve_call(
    run: &mut Run,
    rhs: &[(u64, Vec<f64>)],
    precond: &dyn Precond,
    rec: Option<&Recorder>,
) -> (f64, Vec<Column>) {
    let bs: Vec<Vec<f64>> = rhs.iter().map(|(_, b)| b.clone()).collect();
    let start = Instant::now();
    let results = trace::span(rec, "solve", || {
        if let [b] = bs.as_slice() {
            vec![adapter::pcg(run.problem, b, precond)]
        } else {
            adapter::pcg_batch(run.problem, &bs, precond)
        }
    });
    let secs = start.elapsed().as_secs_f64();
    let cols: Vec<Column> =
        bs.iter().zip(&results).map(|(b, r)| adapter::column(run.problem, b, r)).collect();
    for ((k, _), col) in rhs.iter().zip(&cols) {
        run.check(*k, col);
    }
    (secs, cols)
}

/// `--trace 0`: set-up time, time per solve call and peak memory.
fn end_to_end(
    args: &Args,
    problem: &Problem,
    model: Option<&Arc<adapter::Model>>,
    run: &mut Run,
) -> Vec<Metric> {
    let kind = args.workload.kind;
    let mut setup = Vec::with_capacity(SETUP_REPEATS);
    let mut solver = None;
    for _ in 0..SETUP_REPEATS {
        // Free the previous preconditioner first so peak memory is one set-up.
        drop(solver.take());
        let start = Instant::now();
        let subdomains = adapter::partition(problem);
        run.subdomains = subdomains.len();
        solver = Some(adapter::build(kind, problem, model, subdomains));
        setup.push(start.elapsed().as_secs_f64());
    }
    println!(
        "# set-ups: {}",
        setup.iter().map(|s| format!("{s:.3}s")).collect::<Vec<_>>().join(" ")
    );
    let solver = solver.expect("at least one set-up");
    run.setup_samples = setup.len();

    let mut solve = Vec::new();
    let mut calls = Vec::new();
    let start = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    while solve.len() < MIN_CALLS || start.elapsed() < budget {
        let rhs = run.take_rhs();
        let (secs, cols) = match &solver {
            Solver::Gnn(p) => solve_call(run, &rhs, p, None),
            Solver::Lu(p) => solve_call(run, &rhs, p, None),
            Solver::Ladder(tiers) => {
                let ladder = adapter::ladder(tiers, None);
                solve_call(run, &rhs, &*ladder, None)
            }
        };
        solve.push(secs);
        calls
            .push(format!("{secs:.3}s/{}it", cols.iter().map(|c| c.iterations).max().unwrap_or(0)));
    }
    println!("# solve calls: {}", calls.join(" "));
    run.solve_samples = solve.len();
    drop(solver);

    let rss = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| solverbench::parse_vm_hwm_mib(&s))
        .unwrap_or(0.0);
    vec![
        Metric { name: "solve_s", value: median(&solve), unit: "s" },
        Metric { name: "setup_s", value: median(&setup), unit: "s" },
        Metric { name: "peak_rss_mb", value: rss, unit: "MiB" },
    ]
}

/// Median per-call nanoseconds of `f`: each sample repeats the call until
/// it lasts [`PROBE_FLOOR`].
fn per_call_ns(samples: usize, mut f: impl FnMut()) -> f64 {
    let mut iters: u32 = 1;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        if start.elapsed() >= PROBE_FLOOR || iters >= 1 << 16 {
            break;
        }
        iters *= 2;
    }
    let per: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_nanos() as f64 / f64::from(iters)
        })
        .collect();
    median(&per)
}

fn secs_of(spans: &[Span], idx: usize) -> f64 {
    spans[idx].duration_ns() as f64 * 1e-9
}

/// STREAM triad `a = b + s·c` on `threads` threads over arrays of at least
/// four times the LLC; returns the median rate in GB/s (10⁹ B/s, 24 bytes
/// per element) and the bytes of one array.
fn triad(llc: u64, threads: usize) -> (f64, u64) {
    let len = ((4 * llc).max(64 << 20) / 8) as usize;
    let mut a = vec![0.0f64; len];
    let b = vec![1.0f64; len];
    let c = vec![2.0f64; len];
    let chunk = len.div_ceil(threads.max(1));
    let pass = |a: &mut [f64]| {
        std::thread::scope(|s| {
            for ((a, b), c) in a.chunks_mut(chunk).zip(b.chunks(chunk)).zip(c.chunks(chunk)) {
                s.spawn(move || {
                    for i in 0..a.len() {
                        a[i] = b[i] + 3.0 * c[i];
                    }
                });
            }
        });
    };
    pass(&mut a); // first touch of `a`
    let rates: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            pass(std::hint::black_box(&mut a));
            24.0 * len as f64 / start.elapsed().as_secs_f64() * 1e-9
        })
        .collect();
    std::hint::black_box(&a);
    (median(&rates), 8 * len as u64)
}

/// Per-layer numbers of one traced run, filled as the probes run.  Layers
/// a workload does not have stay 0.
#[derive(Default)]
struct Layers {
    /// Columns per solve call of the workload.
    batch: f64,
    iterations: f64,
    self_s: f64,
    precond_calls: f64,
    batch_occupancy: f64,
    faults: f64,
    downgrades: f64,
    guard_ns: f64,
    spmv_ns: f64,
    spmv_gbps: f64,
    asm_apply_ns: f64,
    coarse_ns: f64,
    asm_setup_s: f64,
    hierarchy_build_s: f64,
    apply_ns: f64,
    local_ns: f64,
    par_eff: f64,
    apply_1t_ns: f64,
    build_s: f64,
    infer_ns: f64,
    infer_bytes: f64,
    infer_flops: f64,
    infer_gbps: f64,
    plan_bytes: f64,
    plan_build_s: f64,
    triad_gbps: f64,
    coverage: f64,
    overhead: f64,
}

impl Layers {
    fn metrics(&self) -> Vec<Metric> {
        let frac = |x: f64| if self.triad_gbps > 0.0 { x / self.triad_gbps } else { 0.0 };
        let m = |name, value, unit| Metric { name, value, unit };
        vec![
            m("krylov.iterations", self.iterations, "count"),
            m("krylov.self_s", self.self_s, "s"),
            m("krylov.precond_calls", self.precond_calls, "count"),
            m("krylov.batch_occupancy", self.batch_occupancy, "ratio"),
            m("krylov.faults", self.faults, "count"),
            m("krylov.downgrades", self.downgrades, "count"),
            m("krylov.guard_ns", self.guard_ns, "ns"),
            m("sparse.spmv_ns", self.spmv_ns, "ns"),
            m("sparse.spmv_gbps", self.spmv_gbps, "GB/s"),
            m("sparse.spmv_bw_frac", frac(self.spmv_gbps), "ratio"),
            m("ddm.asm_apply_ns", self.asm_apply_ns, "ns"),
            m("ddm.coarse_ns", self.coarse_ns, "ns"),
            m("ddm.asm_setup_s", self.asm_setup_s, "s"),
            m("ddm.hierarchy_build_s", self.hierarchy_build_s, "s"),
            m("ddm-gnn.apply_ns", self.apply_ns, "ns"),
            m("ddm-gnn.apply_col_ns", self.apply_ns / self.batch, "ns"),
            m("ddm-gnn.local_ns", self.local_ns, "ns"),
            m("ddm-gnn.par_eff", self.par_eff, "ratio"),
            m("ddm-gnn.apply_1t_ns", self.apply_1t_ns, "ns"),
            m("ddm-gnn.build_s", self.build_s, "s"),
            m("gnn.infer_ns", self.infer_ns, "ns"),
            m("gnn.infer_bytes", self.infer_bytes, "bytes"),
            m("gnn.infer_flops", self.infer_flops, "flop"),
            m("gnn.infer_gbps", self.infer_gbps, "GB/s"),
            m("gnn.infer_bw_frac", frac(self.infer_gbps), "ratio"),
            m("gnn.plan_bytes", self.plan_bytes, "bytes"),
            m("gnn.plan_build_s", self.plan_build_s, "s"),
            m("host.triad_gbps", self.triad_gbps, "GB/s"),
            m("trace.coverage", self.coverage, "ratio"),
            m("trace.overhead", self.overhead, "ratio"),
        ]
    }
}

/// The named gaps when coverage is outside ±5%.
const SOLVE_GAP: &str =
    "krylov self time: SpMV, BLAS-1 and the recurrences inside PCG, outside any apply span";
const SPLIT_APPLY_GAP: &str = "glue between the local and coarse spans: the benchmark's wrapper";
const LADDER_APPLY_GAP: &str =
    "ladder guards: output scans, stagnation tracking and tier dispatch around the tier spans";
/// What the traced run's byte and flop figures are.
const COMPUTED: &str = "sparse.spmv_gbps and gnn.infer_gbps divide computed bytes (CSR arrays and \
     vectors once per SpMV; plan bytes once per inference) by measured time; gnn.infer_bytes and \
     gnn.infer_flops are computed from plan bytes and from blocks, d, nodes and edges";

/// `--trace 1`: the set-up and one solve call timed from outside, layer by
/// layer, plus probes of single layers on the residuals that solve saw.
fn traced(
    args: &Args,
    problem: &Problem,
    model: Option<&Arc<adapter::Model>>,
    host: &Host,
    run: &mut Run,
) -> Vec<Metric> {
    let w = args.workload;
    let rec = Arc::new(Recorder::new());
    let r = Some(&*rec);
    let mut l = Layers { batch: w.batch as f64, ..Layers::default() };

    let (triad_gbps, array_bytes) =
        trace::span(r, "host.triad", || triad(host.llc(), host.threads));
    l.triad_gbps = triad_gbps;
    run.triad_array_bytes = array_bytes;

    let n = adapter::num_unknowns(problem);
    let x = vec![1.0; n];
    let mut y = vec![0.0; n];
    l.spmv_ns = per_call_ns(PROBE_SAMPLES, || adapter::spmv(problem, &x, &mut y));
    l.spmv_gbps = solverbench::spmv_bytes(n, adapter::nnz(problem)) as f64 / l.spmv_ns;

    let setup = rec.begin("setup");
    let subdomains = trace::span(r, "partition", || adapter::partition(problem));
    run.subdomains = subdomains.len();
    let built = Traceable::build(w.kind, problem, model, subdomains.clone(), r);
    rec.end(setup);

    // One untraced and one traced solve of the same call, then more pairs
    // for `trace.overhead` until half of `--seconds` has passed.
    let rhs = run.take_rhs();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds / 2.0);
    let reference = built.traced(None);
    let (reference_s, reference_cols) = solve_call(run, &rhs, &reference, None);
    let traced = built.traced(Some(&rec));
    rec.set_solve(1);
    let (traced_s, cols) = solve_call(run, &rhs, &traced, r);
    rec.set_solve(0);
    l.overhead = overhead(run, deadline, (reference_s, traced_s), |run, id| {
        let (untraced, _) = solve_call(run, &rhs, &built.traced(None), None);
        rec.set_solve(id);
        let (traced, _) = solve_call(run, &rhs, &built.traced(Some(&rec)), r);
        rec.set_solve(0);
        (untraced, traced)
    });
    let identical = reference_cols.iter().zip(&cols).all(|(a, b)| a.hash == b.hash);
    let captured = traced.captured();
    let (calls, columns) = (traced.calls.load(Relaxed), traced.columns.load(Relaxed));
    l.iterations = cols.iter().map(|c| c.iterations).max().unwrap_or(0) as f64;
    l.faults = cols.iter().map(|c| c.faults).sum::<usize>() as f64;
    l.downgrades = cols.iter().map(|c| c.downgrades).sum::<usize>() as f64;
    l.precond_calls = calls as f64;
    l.batch_occupancy = columns as f64 / (calls.max(1) as f64 * l.batch);

    let spans = rec.spans();
    let solve = spans.iter().position(|s| s.solve == 1 && s.name == "solve").expect("solve span");
    l.self_s = solverbench::self_ns(&spans, solve) as f64 * 1e-9;
    l.coverage = solverbench::coverage(&spans, solve);
    let solve_coverage: Vec<f64> = (0..spans.len())
        .filter(|&i| spans[i].name == "solve")
        .map(|i| solverbench::coverage(&spans, i))
        .collect();
    let apply_coverage: Vec<f64> = (0..spans.len())
        .filter(|&i| spans[i].name == "apply")
        .map(|i| solverbench::coverage(&spans, i))
        .collect();
    let apply_span = built.apply_span();
    let applies: Vec<f64> = spans
        .iter()
        .filter(|s| s.solve == 1 && s.name == apply_span)
        .map(|s| s.duration_ns() as f64)
        .collect();
    let apply_ns = median(&applies);
    let built_s = secs_of(&spans, setup) - span_secs(&spans, "partition");
    if w.kind == Kind::LuStream {
        l.asm_apply_ns = apply_ns;
        l.asm_setup_s = built_s;
    } else {
        l.apply_ns = apply_ns;
        l.build_s = built_s;
        l.hierarchy_build_s = span_secs(&spans, "hierarchy");
    }

    let cols_b = &captured[..w.batch.min(captured.len())];
    let mut z = vec![vec![0.0; n]; cols_b.len()];
    if w.kind == Kind::LadderInt8 {
        // Guards: a ladder apply minus the tier applies inside it, on the
        // same residual; the ladder's wrapper span has no other children.
        let guard: Vec<f64> = solverbench::children(&spans, solve)
            .map(|i| solverbench::self_ns(&spans, i) as f64)
            .collect();
        l.guard_ns = median(&guard);
    } else {
        // The workload runs unguarded: time what the resilience guards
        // would add, as the self time of a guarded apply around the traced
        // one.
        let guarded = adapter::guarded(built.traced(Some(&rec)));
        let probes: Vec<usize> = (0..PROBE_SAMPLES)
            .map(|_| {
                let idx = rec.begin("guarded");
                adapter::apply(&guarded, cols_b, &mut z);
                rec.end(idx);
                idx
            })
            .collect();
        let spans = rec.spans();
        let guard: Vec<f64> =
            probes.iter().map(|&i| solverbench::self_ns(&spans, i) as f64).collect();
        l.guard_ns = median(&guard);
    }
    // The library's apply on the first captured call, to check the
    // single-thread replica against (the ladder's active tier differs from
    // the replica's int8 precision, so it is not compared).
    let mut library_z = matches!(w.kind, Kind::GnnF64 | Kind::GnnBatchF32).then(|| {
        adapter::apply(&reference, cols_b, &mut z);
        z.clone()
    });
    drop((reference, traced));

    // The coarse space on the solve's residuals: the split preconditioner's
    // own, or for the ladder a hierarchy like its int8 tier's.
    let coarse = built.into_coarse().unwrap_or_else(|| {
        let start = Instant::now();
        let coarse = adapter::build_hierarchy(problem, adapter::INT8);
        l.hierarchy_build_s = start.elapsed().as_secs_f64();
        coarse
    });
    let mut one = vec![vec![0.0; n]];
    let mut k = 0;
    l.coarse_ns = per_call_ns(PROBE_SAMPLES, || {
        adapter::coarse_apply(
            &coarse,
            std::slice::from_ref(&captured[k % captured.len()]),
            &mut one,
        );
        k += 1;
    });

    let model = model.expect("the traced run loads the model");
    let (precision, gnn_coarse) = match adapter::precision(w.kind) {
        Some(p) => {
            l.local_ns = l.apply_ns - l.batch * l.coarse_ns;

            // Exact multi-level Schwarz: the strongest exact baseline.
            let start = Instant::now();
            let asm = adapter::build_asm_multilevel(problem, subdomains.clone());
            l.asm_setup_s = start.elapsed().as_secs_f64();
            let mut k = 0;
            l.asm_apply_ns = per_call_ns(PROBE_SAMPLES, || {
                let r = std::slice::from_ref(&captured[k % captured.len()]);
                adapter::apply(adapter::as_precond(&asm), r, &mut one);
                k += 1;
            });
            (p, coarse)
        }
        None => {
            // Exact Schwarz runs no GNN: probe the multi-level f64 DDM-GNN
            // on the same problem and residuals, so the GNN layers compare
            // with the Schwarz ones.
            let setup = rec.begin("gnn.setup");
            let gnn = Traceable::build(Kind::GnnF64, problem, Some(model), subdomains.clone(), r);
            rec.end(setup);
            let traced = gnn.traced(Some(&rec));
            let applies = rec.begin("gnn.applies");
            for _ in 0..PROBE_SAMPLES {
                adapter::apply(&traced, cols_b, &mut z);
            }
            rec.end(applies);
            library_z = Some(z.clone());
            drop(traced);
            let spans = rec.spans();
            let apply: Vec<usize> = solverbench::children(&spans, applies).collect();
            let ns = |i: usize| spans[i].duration_ns() as f64;
            let coarse: Vec<f64> = apply
                .iter()
                .flat_map(|&i| solverbench::children(&spans, i))
                .filter(|&c| spans[c].name == "coarse")
                .map(ns)
                .collect();
            l.apply_ns = median(&apply.iter().map(|&i| ns(i)).collect::<Vec<_>>());
            l.local_ns = l.apply_ns - l.batch * median(&coarse);
            l.build_s = secs_of(&spans, setup);
            l.hierarchy_build_s = span_secs(&spans, "hierarchy");
            (adapter::F64, gnn.into_coarse().expect("a split preconditioner"))
        }
    };
    let replica_z = gnn_probes(
        &mut l,
        problem,
        subdomains,
        model,
        precision,
        cols_b,
        &gnn_coarse,
        host.threads,
        r,
    );
    let replica_diff = library_z.map(|z| max_relative_difference(&replica_z, &z));

    let apply_gap = if w.kind == Kind::LadderInt8 { LADDER_APPLY_GAP } else { SPLIT_APPLY_GAP };
    let metrics = l.metrics();
    let spans = rec.spans();
    let file = Json::obj([
        ("record", record(args, host, problem, run)),
        ("metrics", Json::obj(metrics.iter().map(|m| (m.name, Json::Num(m.value))))),
        (
            "zero_or_not_applicable",
            Json::Arr(
                metrics.iter().filter(|m| m.value == 0.0).map(|m| Json::str(m.name)).collect(),
            ),
        ),
        ("computed_not_measured", Json::str(COMPUTED)),
        ("traced_equals_untraced", Json::Bool(identical)),
        ("replica_max_relative_difference", replica_diff.map_or(Json::Null, Json::Num)),
        ("solve_coverage", coverage_json(&solve_coverage, SOLVE_GAP)),
        ("apply_coverage", coverage_json(&apply_coverage, apply_gap)),
        ("spans", spans_json(&spans)),
    ]);
    let path = format!(".solverbench/trace-{}-seed{}.json", w.name, args.seed);
    let written =
        std::fs::create_dir_all(".solverbench").and_then(|()| std::fs::write(&path, file.render()));
    if let Err(e) = written {
        eprintln!("solverbench: cannot write {path}: {e}");
    }
    let apply_median = if apply_coverage.is_empty() { 0.0 } else { median(&apply_coverage) };
    println!(
        "# trace: solve coverage {:.4}{}; apply coverage median {apply_median:.4}{}; \
         traced = untraced: {identical}; spans in {path}",
        l.coverage,
        gap_note(l.coverage, SOLVE_GAP),
        gap_note(apply_median, apply_gap),
    );
    metrics
}

/// GNN-layer probes on the gnn plan API, with the preconditioner freed;
/// returns the single-thread replica's apply of `cols`.
#[allow(clippy::too_many_arguments)]
fn gnn_probes(
    l: &mut Layers,
    problem: &Problem,
    subdomains: Vec<Vec<usize>>,
    model: &Arc<adapter::Model>,
    precision: adapter::InferencePrecision,
    cols: &[Vec<f64>],
    coarse: &adapter::Coarse,
    threads: usize,
    r: Option<&Recorder>,
) -> Vec<Vec<f64>> {
    let b = cols.len();
    let mut gnn =
        trace::span(r, "replica.graphs", || adapter::LocalGnn::new(problem, subdomains, model));
    let start = Instant::now();
    trace::span(r, "replica.plans", || gnn.build_plans(precision));
    l.plan_build_s = start.elapsed().as_secs_f64();
    let k = gnn.num_subdomains();
    let bytes: Vec<f64> = (0..k).map(|i| gnn.plan_bytes(i) as f64).collect();
    let total_bytes: f64 = bytes.iter().sum();
    l.plan_bytes = total_bytes;
    l.infer_bytes = total_bytes / k as f64;
    l.infer_flops =
        (0..k).map(|i| gnn.flops_per_column(i) * b as u64).sum::<u64>() as f64 / k as f64;

    let mut slots = gnn.slots(cols);
    let mut per: Vec<Vec<f64>> = vec![Vec::new(); k];
    for _ in 0..3 {
        for (i, s) in slots.iter_mut().enumerate() {
            let start = Instant::now();
            gnn.infer(i, &s.panel, b, &mut s.scratch, &mut s.out);
            per[i].push(start.elapsed().as_nanos() as f64);
        }
    }
    let each: Vec<f64> = per.iter().map(|t| median(t)).collect();
    l.infer_ns = median(&each);
    let sequential: f64 = each.iter().sum();
    let parallel: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            gnn.infer_all_parallel(&mut slots, b);
            start.elapsed().as_nanos() as f64
        })
        .collect();
    l.infer_gbps = total_bytes / median(&parallel);
    if l.local_ns > 0.0 {
        l.par_eff = sequential / (threads as f64 * l.local_ns);
    }
    let mut zs = vec![vec![0.0; adapter::num_unknowns(problem)]; b];
    l.apply_1t_ns = per_call_ns(3, || gnn.apply_single_thread(cols, &mut zs, &mut slots, coarse));
    zs
}

/// Largest absolute difference over the largest magnitude of `reference`.
fn max_relative_difference(a: &[Vec<f64>], reference: &[Vec<f64>]) -> f64 {
    let pairs = || a.iter().flatten().zip(reference.iter().flatten());
    let diff = pairs().map(|(x, y)| (x - y).abs()).fold(0.0, f64::max);
    let scale = reference.iter().flatten().map(|y| y.abs()).fold(0.0, f64::max);
    if scale > 0.0 {
        diff / scale
    } else {
        diff
    }
}

/// `trace.overhead`: median traced over median untraced seconds of the same
/// call, from the first pair and further pairs run until `deadline`.
fn overhead(
    run: &mut Run,
    deadline: Instant,
    first: (f64, f64),
    mut pair: impl FnMut(&mut Run, u32) -> (f64, f64),
) -> f64 {
    let (mut untraced, mut traced) = (vec![first.0], vec![first.1]);
    let mut id = 2;
    while Instant::now() < deadline {
        let (a, b) = pair(run, id);
        untraced.push(a);
        traced.push(b);
        id += 1;
    }
    run.solve_samples = traced.len();
    median(&traced) / median(&untraced)
}

fn span_secs(spans: &[Span], name: &str) -> f64 {
    spans.iter().position(|s| s.name == name).map_or(0.0, |i| secs_of(spans, i))
}

fn gap_note(coverage: f64, gap: &str) -> String {
    if solverbench::coverage_gap_is_material(coverage) {
        format!(" (gap: {gap})")
    } else {
        String::new()
    }
}

fn coverage_json(values: &[f64], gap: &str) -> Json {
    if values.is_empty() {
        return Json::Null;
    }
    let [q1, q2, q3] = solverbench::quartiles(values);
    let outside = values.iter().filter(|&&c| solverbench::coverage_gap_is_material(c)).count();
    Json::obj([
        ("count", Json::Int(values.len() as u64)),
        ("q1", Json::Num(q1)),
        ("median", Json::Num(q2)),
        ("q3", Json::Num(q3)),
        ("outside_5pct", Json::Int(outside as u64)),
        ("gap", if outside > 0 { Json::str(gap) } else { Json::Null }),
    ])
}

fn spans_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::str(s.name.clone())),
                    ("start_ns", Json::Int(s.start_ns)),
                    ("end_ns", Json::Int(s.end_ns)),
                    ("parent", s.parent.map_or(Json::Null, |p| Json::Int(p as u64))),
                    ("solve", Json::Int(u64::from(s.solve))),
                ])
            })
            .collect(),
    )
}

/// Host, workload and sample facts printed with every result.
fn record(args: &Args, host: &Host, problem: &Problem, run: &Run) -> Json {
    let mut tags = Vec::new();
    if host.threads > host.nproc {
        tags.push(Json::str("oversubscribed"));
    }
    if host.llc_bytes.is_none() {
        tags.push(Json::str("llc_size_assumed"));
    }
    Json::obj([
        ("workload", Json::str(args.workload.name)),
        ("seed", Json::Int(args.seed)),
        ("problem_seed", Json::Int(args.problem_seed)),
        ("trace", Json::Bool(args.trace)),
        ("seconds", Json::Num(args.seconds)),
        ("n", Json::Int(adapter::num_unknowns(problem) as u64)),
        ("nnz", Json::Int(adapter::nnz(problem) as u64)),
        ("subdomains", Json::Int(run.subdomains as u64)),
        ("columns_per_call", Json::Int(args.workload.batch as u64)),
        ("cpu_model", Json::str(host.cpu.clone())),
        ("nproc", Json::Int(host.nproc as u64)),
        ("threads", Json::Int(host.threads as u64)),
        ("llc_bytes", Json::Int(host.llc())),
        ("triad_array_bytes", Json::Int(run.triad_array_bytes)),
        ("solve_samples", Json::Int(run.solve_samples as u64)),
        ("setup_samples", Json::Int(run.setup_samples as u64)),
        ("tags", Json::Arr(tags)),
    ])
}
