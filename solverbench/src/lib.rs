//! Arithmetic, workload table and report format of the solver benchmark.
//!
//! Everything here is pure: no clock reads and no calls into the solver
//! crates, so it is unit-tested on its own (`cargo test --manifest-path
//! solverbench/Cargo.toml --lib`).  The measuring code lives in
//! `benches/solverbench/`.

use std::fmt::Write as _;

/// Relative tolerance of every PCG solve and of the true-residual check.
pub const TOLERANCE: f64 = 1e-6;

/// What a workload solves and with which preconditioner.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Multi-level DDM-GNN with f64 inference, one right-hand side per solve.
    GnnF64,
    /// Multi-level DDM-GNN with f32 inference, 8 right-hand sides in lockstep.
    GnnBatchF32,
    /// The int8 → f32 → f64 → Schwarz → Jacobi degradation ladder with one
    /// injected NaN fault in the int8 tier.
    LadderInt8,
    /// Two-level exact Schwarz (Nicolaides coarse space), one right-hand
    /// side per solve.
    LuStream,
}

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// Problem seed whose f64 trajectory hash is pinned (see `pinned_hash`).
    pub default_problem_seed: u64,
    /// Target node count passed to `generate_problem`.
    pub target_nodes: usize,
    /// Right-hand sides per solve call.
    pub batch: usize,
    /// FNV-1a hash of the residual history then `x` of the problem's own
    /// right-hand side at the default problem seed, where one is pinned.
    pub pinned_hash: Option<u64>,
}

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "gnn-f64-24k",
        kind: Kind::GnnF64,
        default_problem_seed: 3,
        target_nodes: 24_000,
        batch: 1,
        pinned_hash: Some(0x84ba_59fc_00f4_8b22),
    },
    Workload {
        name: "gnn-batch8-f32-9k",
        kind: Kind::GnnBatchF32,
        default_problem_seed: 2,
        target_nodes: 9_000,
        batch: 8,
        pinned_hash: None,
    },
    Workload {
        name: "ladder-int8-24k",
        kind: Kind::LadderInt8,
        default_problem_seed: 3,
        target_nodes: 24_000,
        batch: 1,
        pinned_hash: None,
    },
    Workload {
        name: "lu-stream-48k",
        kind: Kind::LuStream,
        default_problem_seed: 4,
        target_nodes: 48_000,
        batch: 1,
        pinned_hash: Some(0x28b6_947b_871b_ea15),
    },
];

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Command-line arguments.
#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    pub workload: &'static Workload,
    /// Seed of the right-hand-side stream.
    pub seed: u64,
    /// Length of the measured solve loop.
    pub seconds: f64,
    /// Per-layer traced run instead of the end-to-end run.
    pub trace: bool,
    /// Problem seed; the workload's pinned default when absent.
    pub problem_seed: u64,
}

/// Parse `--workload <name> --seed <n> --seconds <s> --trace <0|1>
/// [--problem-seed <n>]`.  A bare `--bench`, which `cargo bench` appends, is
/// ignored.
pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut problem_seed = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--bench" {
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(workload_or_err(value)?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("expected a number"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("expected a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            "--problem-seed" => {
                problem_seed = Some(value.parse::<u64>().map_err(|_| bad("expected an integer"))?)
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        problem_seed: problem_seed.unwrap_or(workload.default_problem_seed),
    })
}

fn workload_or_err(name: &str) -> Result<&'static Workload, String> {
    workload(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; expected one of {}", names.join(", "))
    })
}

/// Source-term seed of right-hand side `k ≥ 1` of the stream for `seed`
/// (SplitMix64 of the pair, so neighbouring seeds give unrelated streams).
pub fn rhs_seed(seed: u64, k: u64) -> u64 {
    let mut z = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(k);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over the bit patterns of a float sequence: the trajectory witness
/// the repository's `perf_suite` and `multilevel_suite` pin.
pub fn fnv1a_f64s(values: impl IntoIterator<Item = f64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// Failed columns over attempted columns (0 when nothing was attempted).
pub fn fail_ratio(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// Median of a sample (the mean of the middle pair for even counts).
///
/// # Panics
/// On an empty sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// First, second and third quartile with the interpolation of Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// the same quartiles the spread over runs is judged with.
///
/// # Panics
/// On an empty sample.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld == 1 {
        return [v[0]; 3];
    }
    let (m, n) = (ld + 1, 4);
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64;
    }
    out
}

/// One timed interval of the trace.  Times are nanoseconds since the
/// recorder's origin; `parent` indexes the enclosing span of the same list.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Solve the span belongs to (0 for set-up and layer probes).
    pub solve: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Indices of the direct children of span `idx`.
pub fn children(spans: &[Span], idx: usize) -> impl Iterator<Item = usize> + '_ {
    spans.iter().enumerate().filter(move |(_, s)| s.parent == Some(idx)).map(|(i, _)| i)
}

/// Self time of span `idx`: its duration minus the part of its interval
/// that its children cover (overlapping children are counted once).
pub fn self_ns(spans: &[Span], idx: usize) -> u64 {
    let parent = &spans[idx];
    let mut intervals: Vec<(u64, u64)> = children(spans, idx)
        .map(|c| (spans[c].start_ns.max(parent.start_ns), spans[c].end_ns.min(parent.end_ns)))
        .filter(|(s, e)| e > s)
        .collect();
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = parent.start_ns;
    for (s, e) in intervals {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    parent.duration_ns() - covered
}

/// Sum of the children's durations over the span's own duration.
pub fn coverage(spans: &[Span], idx: usize) -> f64 {
    let total = spans[idx].duration_ns();
    if total == 0 {
        return 1.0;
    }
    children(spans, idx).map(|c| spans[c].duration_ns()).sum::<u64>() as f64 / total as f64
}

/// Coverage outside ±5% of the parent's wall: the gap must be named.
pub fn coverage_gap_is_material(coverage: f64) -> bool {
    (coverage - 1.0).abs() > 0.05
}

/// A JSON value, rendered compactly.  Numbers are written with the shortest
/// representation that reads back to the same `f64`.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(u64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Build an object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            // JSON has no NaN or infinity.
            Json::Num(x) if !x.is_finite() => out.push_str("null"),
            Json::Num(x) => {
                let _ = write!(out, "{x:?}");
            }
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A named metric value with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The result line: exactly `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    Json::obj([
        ("correct", Json::Bool(failed == 0 && attempted > 0)),
        ("attempted", Json::Int(attempted)),
        ("failed", Json::Int(failed)),
        (
            "metrics",
            Json::obj(metrics.iter().map(|m| {
                (m.name, Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]))
            })),
        ),
    ])
    .render()
}

/// Parse a sysfs cache size such as `107520K` or `105M` into bytes.
pub fn parse_cache_size(text: &str) -> Option<u64> {
    let t = text.trim();
    let (digits, scale) = match t.chars().last()? {
        'K' | 'k' => (&t[..t.len() - 1], 1u64 << 10),
        'M' | 'm' => (&t[..t.len() - 1], 1u64 << 20),
        'G' | 'g' => (&t[..t.len() - 1], 1u64 << 30),
        _ => (t, 1),
    };
    digits.trim().parse::<u64>().ok().map(|v| v * scale)
}

/// Parse the `VmHWM` line of `/proc/self/status` into MiB.
pub fn parse_vm_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line["VmHWM:".len()..].trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kib / 1024.0)
}

/// Computed floating-point operations of one DSS inference of one column on
/// a graph of `n` nodes and `e` directed edges with `blocks` message-passing
/// blocks of latent width `d`: per block the four node GEMMs of the split
/// first message layer (8nd²), the two-direction edge sweep (6ed), the three
/// Ψ GEMMs plus Ψ's second layer (8nd²) and the element-wise terms (5nd);
/// then the decoder (2nd² + 2nd).
pub fn dss_inference_flops(blocks: usize, d: usize, n: usize, e: usize) -> u64 {
    let (blocks, d, n, e) = (blocks as u64, d as u64, n as u64, e as u64);
    blocks * (16 * n * d * d + 6 * e * d + 5 * n * d) + 2 * n * d * d + 2 * n * d
}

/// Computed bytes one CSR SpMV `y = A x` streams with `usize` column
/// indices: values and indices once, row pointers once, `x` and `y` once.
pub fn spmv_bytes(nrows: usize, nnz: usize) -> u64 {
    let word = std::mem::size_of::<usize>() as u64;
    (nnz as u64) * (8 + word) + (nrows as u64 + 1) * word + 2 * 8 * nrows as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), [1.5, 3.0, 4.5]);
        assert_eq!(quartiles(&[4.0]), [4.0; 3]);
    }

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { name: name.to_string(), start_ns: start, end_ns: end, parent, solve: 1 }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("solve", 0, 100, None),
            span("apply", 10, 40, Some(0)),
            span("apply", 50, 90, Some(0)),
            span("local", 12, 30, Some(1)),
            span("coarse", 30, 39, Some(1)),
        ];
        assert_eq!(self_ns(&spans, 0), 30);
        assert_eq!(self_ns(&spans, 1), 3);
        assert_eq!(self_ns(&spans, 2), 40);
        assert_eq!(self_ns(&spans, 3), 18);
        // Overlapping and out-of-range children are not double counted.
        let overlapping =
            vec![span("p", 0, 10, None), span("a", 2, 6, Some(0)), span("b", 4, 12, Some(0))];
        assert_eq!(self_ns(&overlapping, 0), 2);
    }

    #[test]
    fn coverage_is_children_over_parent() {
        let spans = vec![
            span("solve", 0, 100, None),
            span("apply", 10, 40, Some(0)),
            span("apply", 50, 90, Some(0)),
        ];
        assert!((coverage(&spans, 0) - 0.7).abs() < 1e-15);
        assert_eq!(coverage(&spans, 1), 0.0);
        assert!(coverage_gap_is_material(0.7));
        assert!(!coverage_gap_is_material(0.96));
        assert!(!coverage_gap_is_material(1.04));
        assert!(coverage_gap_is_material(1.06));
    }

    #[test]
    fn fail_ratio_counts_columns() {
        assert_eq!(fail_ratio(0, 16), 0.0);
        assert_eq!(fail_ratio(2, 8), 0.25);
        assert_eq!(fail_ratio(0, 0), 0.0);
    }

    #[test]
    fn fnv1a_is_order_sensitive_and_stable() {
        assert_eq!(fnv1a_f64s([]), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a_f64s([1.0, 2.0]), fnv1a_f64s([2.0, 1.0]));
        assert_eq!(fnv1a_f64s([0.5, -3.0]), fnv1a_f64s(vec![0.5, -3.0]));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(4, 0, &[Metric { name: "solve_s", value: 1.25, unit: "s" }]);
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":4,"failed":0,"metrics":{"solve_s":{"value":1.25,"unit":"s"}}}"#
        );
        assert!(result_line(4, 1, &[]).starts_with(r#"{"correct":false"#));
    }

    #[test]
    fn json_escapes_and_rejects_non_finite() {
        let j = Json::obj([("a\"b", Json::str("x\ny")), ("n", Json::Num(f64::NAN))]);
        assert_eq!(j.render(), r#"{"a\"b":"x\ny","n":null}"#);
        assert_eq!(Json::Num(0.1).render(), "0.1");
        assert_eq!(Json::Num(3.0).render(), "3.0");
    }

    #[test]
    fn parse_args_accepts_the_benchmark_command_line() {
        let a =
            parse_args(&args("--workload lu-stream-48k --seed 7 --seconds 10 --trace 1 --bench"))
                .unwrap();
        assert_eq!(a.workload.name, "lu-stream-48k");
        assert_eq!((a.seed, a.seconds, a.trace, a.problem_seed), (7, 10.0, true, 4));
        let b = parse_args(&args(
            "--workload gnn-f64-24k --seed 1 --seconds 2 --trace 0 --problem-seed 9",
        ))
        .unwrap();
        assert_eq!((b.trace, b.problem_seed), (false, 9));
        assert!(parse_args(&args("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(
            parse_args(&args("--workload lu-stream-48k --seed 1 --seconds 0 --trace 0")).is_err()
        );
        assert!(parse_args(&args("--workload lu-stream-48k --seed 1 --trace 0")).is_err());
        assert!(
            parse_args(&args("--workload lu-stream-48k --seed 1 --seconds 1 --trace 2")).is_err()
        );
    }

    #[test]
    fn rhs_seeds_differ_across_seeds_and_indices() {
        assert_ne!(rhs_seed(1, 1), rhs_seed(2, 1));
        assert_ne!(rhs_seed(1, 1), rhs_seed(1, 2));
        assert_eq!(rhs_seed(5, 3), rhs_seed(5, 3));
    }

    #[test]
    fn host_file_parsers() {
        assert_eq!(parse_cache_size("107520K\n"), Some(107520 * 1024));
        assert_eq!(parse_cache_size("105M"), Some(105 << 20));
        assert_eq!(parse_cache_size("garbage"), None);
        let status = "Name:\tx\nVmPeak:\t  2048 kB\nVmHWM:\t  1536 kB\n";
        assert_eq!(parse_vm_hwm_mib(status), Some(1.5));
        assert_eq!(parse_vm_hwm_mib("Name: x\n"), None);
    }

    #[test]
    fn computed_work_formulas() {
        // One block, d = 1, a single node with one edge:
        // 16 + 6 + 5 per block, then 2 + 2 for the decoder.
        assert_eq!(dss_inference_flops(1, 1, 1, 1), 31);
        let word = std::mem::size_of::<usize>() as u64;
        assert_eq!(spmv_bytes(2, 3), 3 * (8 + word) + 3 * word + 32);
    }
}
