//! Pieces every workload shares: the closed op loop, quantiles, peak RSS,
//! the per-layer call timer and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Command-line options of one workload process.
#[derive(Debug)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed drawing the op order (and, on `serve_mix`, the write variants).
    pub seed: u64,
    /// Nominal length of the measured op loop (see [`closed_loop`]).
    pub seconds: f64,
    /// Time every layer call and capture program counters.
    pub traced: bool,
    /// How many times set-up is repeated; `setup_s` is their median.
    pub setup_reps: usize,
    /// Stop the measured loop after this many ops, even inside a pass (the
    /// smoke test's short runs).
    pub max_ops: usize,
    /// Print the digest table of every op instead of measuring.
    pub print_digests: bool,
}

/// Milliseconds elapsed since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Linear-interpolation quantile (`q` in `[0, 1]`) of unsorted `values`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Peak resident set size of this process (VmHWM) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// 64-bit FNV-1a, folded over `u64` words (used for op digests).
pub fn fnv_words(words: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The digests every op must reproduce, keyed `workload/op-key`, pinned in
/// `digests.txt` (regenerate with `--print-digests`).
pub fn pinned(workload: &str) -> BTreeMap<String, u64> {
    include_str!("../digests.txt")
        .lines()
        .filter_map(|l| {
            let mut it = l.split_whitespace();
            let (w, key, hex) = (it.next()?, it.next()?, it.next()?);
            (w == workload).then(|| Some((key.to_string(), u64::from_str_radix(hex, 16).ok()?)))?
        })
        .collect()
}

/// Checks `digest` of op `key` against the pinned table; a missing pin is a
/// mismatch too, so a renamed op cannot pass unchecked.
pub fn check(pins: &BTreeMap<String, u64>, key: &str, digest: u64) -> bool {
    let ok = pins.get(key) == Some(&digest);
    if !ok {
        eprintln!(
            "digest mismatch on {key}: got {digest:016x}, pinned {:?}",
            pins.get(key).map(|d| format!("{d:016x}"))
        );
    }
    ok
}

/// What a closed op loop measured.
#[derive(Debug, Default)]
pub struct LoopStats {
    /// Latency of every op, in order.
    pub latencies_ms: Vec<f64>,
    /// Ops whose result was wrong or refused.
    pub failed: u64,
    /// Wall time from the first op's start to the last op's end.
    pub wall_s: f64,
    /// Ops per pass: op `i` is slot `i % pass_len` of the op list.
    pub pass_len: usize,
}

impl LoopStats {
    /// Ops completed per wall second.
    pub fn ops_per_s(&self) -> f64 {
        self.latencies_ms.len() as f64 / self.wall_s
    }

    /// Median over the op list of each op's mean latency across the passes.
    /// Averaging each op over the whole run first makes the median follow
    /// the share of the run the host was busy smoothly; a median over every
    /// op flips between the host's quiet and busy speeds.
    pub fn op_p50_of_means_ms(&self) -> f64 {
        let n = self.pass_len.max(1);
        let means: Vec<f64> = (0..n.min(self.latencies_ms.len()))
            .map(|k| {
                let slot: Vec<f64> = self.latencies_ms[k..].iter().step_by(n).copied().collect();
                slot.iter().sum::<f64>() / slot.len() as f64
            })
            .collect();
        quantile(&means, 0.5)
    }
}

/// Runs `op(i)` for `i = 0, 1, …` in a closed loop over whole passes of
/// `pass_len` ops; `op` returns whether the op's output was correct. Each
/// op starts only after the previous one ended, so nothing queues. The
/// number of passes is fixed by `args.seconds` and the pass's nominal
/// duration on the reference VM (`pass_s`), at least one, so every run of
/// a workload measures the same ops whatever the machine's speed;
/// `args.max_ops` cuts it short for the smoke test.
pub fn closed_loop(
    args: &Args,
    pass_len: usize,
    pass_s: f64,
    mut op: impl FnMut(usize) -> bool,
) -> LoopStats {
    let passes = (args.seconds / pass_s).round().max(1.0) as usize;
    let mut stats = LoopStats {
        pass_len,
        ..LoopStats::default()
    };
    let start = Instant::now();
    for i in 0..(passes * pass_len).min(args.max_ops) {
        let t = Instant::now();
        let ok = op(i);
        stats.latencies_ms.push(ms_since(t));
        stats.failed += u64::from(!ok);
    }
    stats.wall_s = start.elapsed().as_secs_f64();
    stats
}

/// Median of `reps` timed runs of `setup`, plus the value of the last run.
pub fn median_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        let value = setup();
        times.push(t.elapsed().as_secs_f64());
        last = Some(value);
    }
    let value = last.unwrap_or_else(|| unreachable!("reps.max(1) runs at least once"));
    (quantile(&times, 0.5), value)
}

/// Per-layer attribution for a traced run: wall time of every call the
/// benchmark makes into a layer's public function, and the program's own
/// `varitune_trace` counters that call raised.
/// Disabled (the untraced run), it only runs the calls.
#[derive(Debug, Default)]
pub struct Layers {
    enabled: bool,
    phase: Phase,
    /// (phase, call) → (calls, total ms).
    calls: BTreeMap<(Phase, &'static str), (u64, f64)>,
    counters: BTreeMap<&'static str, BTreeMap<String, u64>>,
    values: BTreeMap<&'static str, f64>,
}

/// Which part of a run a layer call belongs to.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Phase {
    #[default]
    Setup,
    Ops,
    Probes,
}

/// Per-layer metrics that are a layer call's mean time: (metric, call).
const TIMED: [(&str, &str); 15] = [
    ("synth.synthesize_ms", "synth.synthesize"),
    ("sta.worst_paths_ms", "sta.worst_paths"),
    ("sta.graph_build_ms", "sta.graph_build"),
    ("sta.full_propagate_ms", "sta.full_propagate"),
    ("sta.ssta_ms", "sta.ssta"),
    ("sta.path_mc_ms", "sta.path_mc"),
    ("core.tune_ms", "core.tune"),
    ("libchar.characterize_ms", "libchar.characterize"),
    ("liberty.parse_ms", "liberty.parse"),
    ("core.screen_ms", "core.screen"),
    ("netlist.generate_ms", "netlist.generate"),
    ("serve.decode_ms", "serve.decode"),
    ("serve.hash_ms", "serve.hash"),
    ("serve.registry.flow_ms", "serve.registry.flow"),
    ("serve.registry.baseline_ms", "serve.registry.baseline"),
];

/// Per-layer metrics that are a counter per layer call: (metric, call,
/// counter).
const COUNTED: [(&str, &str, &str); 6] = [
    ("synth.iterations", "synth.synthesize", "synth.iterations"),
    (
        "synth.buffers_inserted",
        "synth.synthesize",
        "synth.buffers_inserted",
    ),
    (
        "synth.resizes_critical",
        "synth.synthesize",
        "synth.resizes_critical",
    ),
    (
        "sta.gates_recomputed",
        "synth.synthesize",
        "sta.gates_recomputed",
    ),
    ("core.restricted_pins", "core.tune", "core.restricted_pins"),
    (
        "libchar.mc_trials",
        "libchar.characterize",
        "libchar.mc_trials",
    ),
];

/// Per-layer metrics a workload sets directly (client-side serve latencies
/// and server counters).
const DIRECT: [&str; 6] = [
    "serve.hit_ms",
    "serve.miss_ms",
    "serve.frame_mb",
    "serve.characterizations",
    "serve.hit_ratio",
    "serve.jobs_shed",
];

impl Layers {
    /// A recorder that times calls when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            ..Self::default()
        }
    }

    /// Marks the end of set-up: later calls count as op time.
    pub fn begin_ops(&mut self) {
        self.phase = Phase::Ops;
    }

    /// Marks the end of the measured loop: later calls are probes made
    /// only to time a layer the ops reach inside the server.
    pub fn begin_probes(&mut self) {
        self.phase = Phase::Probes;
    }

    /// Whether calls are timed.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Times `f` as one call into layer function `name`, capturing the
    /// counters it raises.
    pub fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let ((value, ms), trace) = varitune_trace::capture(|| {
            let t = Instant::now();
            let value = f();
            (value, ms_since(t))
        });
        let entry = self.calls.entry((self.phase, name)).or_default();
        entry.0 += 1;
        entry.1 += ms;
        let counters = self.counters.entry(name).or_default();
        for (k, v) in trace.metrics.counters {
            *counters.entry(k).or_default() += v;
        }
        value
    }

    /// Adds `delta` to counter `counter` of layer call `name` (for counts
    /// a layer returns rather than records).
    pub fn add_count(&mut self, name: &'static str, counter: &str, delta: u64) {
        *self
            .counters
            .entry(name)
            .or_default()
            .entry(counter.to_string())
            .or_default() += delta;
    }

    /// Sets a per-layer metric measured outside a layer call.
    pub fn set(&mut self, metric: &'static str, value: f64) {
        self.values.insert(metric, value);
    }

    /// Every per-layer metric; a layer this workload never calls reads 0.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let mut out: Vec<(&'static str, f64)> = TIMED
            .iter()
            .map(|&(metric, call)| (metric, self.per_call_ms(call)))
            .collect();
        out.extend(
            COUNTED
                .iter()
                .map(|&(metric, call, counter)| (metric, self.counter_per_call(call, counter))),
        );
        out.extend(
            DIRECT
                .iter()
                .map(|&metric| (metric, self.values.get(metric).copied().unwrap_or(0.0))),
        );
        out
    }

    /// Mean milliseconds per call of `name` (0 when never called).
    pub fn per_call_ms(&self, name: &str) -> f64 {
        match self.total(name) {
            (0, _) => 0.0,
            (n, ms) => ms / n as f64,
        }
    }

    fn total(&self, name: &str) -> (u64, f64) {
        self.calls
            .iter()
            .filter(|((_, call), _)| *call == name)
            .fold((0, 0.0), |(n, ms), (_, &(dn, dms))| (n + dn, ms + dms))
    }

    /// Counter `counter` raised under layer call `name`, per call.
    pub fn counter_per_call(&self, name: &str, counter: &str) -> f64 {
        let (n, _) = self.total(name);
        if n == 0 {
            return 0.0;
        }
        let total = self
            .counters
            .get(name)
            .and_then(|c| c.get(counter))
            .copied()
            .unwrap_or(0);
        total as f64 / n as f64
    }

    /// The per-layer table, one section per phase: calls, mean time, share
    /// of the phase's wall time (`setup_ms`, or `op_ms`, the summed latency
    /// of the measured ops), and each call's counter snapshot over both
    /// phases. Every timed call is a leaf of the benchmark's own code, so a
    /// call's time is its self time.
    pub fn table(&self, setup_ms: f64, op_ms: f64) -> String {
        let mut out = String::new();
        for (phase, label, base) in [
            (Phase::Setup, "set-up", setup_ms),
            (Phase::Ops, "ops", op_ms),
            (Phase::Probes, "probes", f64::NAN),
        ] {
            let _ = writeln!(
                out,
                "{:<28} {:>7} {:>12} {:>9}  counters (both phases)",
                format!("{label} layer call"),
                "calls",
                "ms/call",
                "share"
            );
            for (&(_, name), &(n, ms)) in self.calls.iter().filter(|((p, _), _)| *p == phase) {
                let counters = self
                    .counters
                    .get(name)
                    .map(|c| {
                        c.iter()
                            .map(|(k, v)| format!("{k}={v}"))
                            .collect::<Vec<_>>()
                            .join(" ")
                    })
                    .unwrap_or_default();
                let _ = writeln!(
                    out,
                    "{:<28} {:>7} {:>12.3} {:>9}  {}",
                    name,
                    n,
                    ms / n as f64,
                    if base.is_nan() {
                        "-".to_string()
                    } else {
                        format!("{:.1}%", 100.0 * ms / base)
                    },
                    counters
                );
            }
        }
        out
    }
}

/// The last line a workload process prints: correctness, op counts and
/// every metric by name (units are attached by `run.py`).
pub struct Report {
    /// Whether every checked output matched.
    pub correct: bool,
    /// Ops attempted in the measured loop.
    pub attempted: u64,
    /// Ops that failed (error, shed or digest mismatch).
    pub failed: u64,
    /// Set-up wall time of the last set-up (the base of set-up shares).
    pub setup_ms: f64,
    /// Summed latency of the measured ops (the base of op shares).
    pub op_ms: f64,
    /// Metric name → value.
    pub metrics: Vec<(&'static str, f64)>,
}

impl Report {
    /// The end-to-end metrics of a measured loop. `correct` covers the
    /// checks made outside the loop (set-up and warm-up outputs).
    pub fn new(correct: bool, setup_s: f64, stats: &LoopStats) -> Self {
        Self {
            correct: correct && stats.failed == 0,
            attempted: stats.latencies_ms.len() as u64,
            failed: stats.failed,
            setup_ms: setup_s * 1e3,
            op_ms: stats.latencies_ms.iter().sum(),
            metrics: vec![
                ("setup_s", setup_s),
                ("ops_per_s", stats.ops_per_s()),
                ("op_p50_of_means_ms", stats.op_p50_of_means_ms()),
                ("op_p50_ms", quantile(&stats.latencies_ms, 0.5)),
                ("op_p90_ms", quantile(&stats.latencies_ms, 0.9)),
                ("peak_rss_mb", peak_rss_mb()),
            ],
        }
    }

    /// The report as one JSON line.
    pub fn to_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(k, v)| format!("\"{k}\":{}", if v.is_finite() { *v } else { 0.0 }))
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
            self.correct, self.attempted, self.failed
        )
    }
}

/// A seeded permutation of `0..n` (Fisher–Yates on the workspace RNG).
pub fn shuffled(n: usize, seed: u64, label: &str) -> Vec<usize> {
    let mut rng = varitune_variation::rng::rng_from(seed, label, 0);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}
