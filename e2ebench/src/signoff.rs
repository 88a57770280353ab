//! `signoff`: synthesizes baseline and tuned paper-scale designs during
//! set-up, then loops signoff over them. One op is a full-graph timing
//! sweep (`TimingGraph::new` plus a full re-propagation), worst-path
//! extraction, SSTA and path Monte Carlo on one design. Synthesis does no
//! timed work here. Untraced, the tuned designs come from
//! `Flow::run_tuned`; traced, from `tune` → `synthesize` → `worst_paths`
//! as separate layer calls; both must sign off to the same pinned digests.

use std::time::Instant;

use varitune_core::flow::{Flow, FlowRun};
use varitune_core::{TuningMethod, TuningParams};
use varitune_sta::paths::worst_paths;
use varitune_sta::PathTiming;
use varitune_sta::{analyze_ssta, simulate_worst_paths, SstaOptions, TimingGraph};
use varitune_synth::LibraryConstraints;
use varitune_variation::mc::VariationMode;
use varitune_variation::ProcessCorner;

use crate::common::{
    check, closed_loop, fnv_words, median_setup, ms_since, pinned, shuffled, Args, Layers, Report,
};
use crate::flow::{baseline_key, prepare, run_flow, run_point, synth_config, Point, PERIODS};

/// Path Monte-Carlo samples per worst path (the paper's N = 200).
const MC_SAMPLES: usize = 200;
/// Paths the Monte Carlo validates: the statistically worst ones (by
/// mean + 3σ). All ~5 000 endpoints would take 3 s per design, 80 % of
/// the op, and say nothing more about the critical paths.
const MC_PATHS: usize = 100;
/// Nominal duration of a pass over the four designs on the reference VM.
const PASS_S: f64 = 3.2;
/// Seed of the path Monte Carlo.
const MC_SEED: u64 = 20_140_324;

/// The signed-off designs: the baseline at each clock, and one tuned
/// design per clock, as (period index, Table-2 point).
fn designs() -> [(usize, Option<Point>); 4] {
    [
        (0, None),
        (1, None),
        (
            0,
            Some(Point {
                method: TuningMethod::SigmaCeiling,
                params: TuningParams::with_sigma_ceiling(0.02),
            }),
        ),
        (
            1,
            Some(Point {
                method: TuningMethod::CellLoadSlope,
                params: TuningParams::with_load_slope(0.03),
            }),
        ),
    ]
}

/// The prepared flow and the synthesized designs with their pin keys.
struct Setup {
    flow: Flow,
    designs: Vec<(String, FlowRun)>,
}

fn setup(layers: &mut Layers) -> Setup {
    let flow = prepare(layers);
    let designs = designs()
        .into_iter()
        .map(|(period, point)| match point {
            None => {
                let cfg = synth_config(PERIODS[period]);
                let unconstrained = LibraryConstraints::unconstrained();
                (
                    baseline_key(period),
                    run_flow(layers, &flow, &unconstrained, &cfg),
                )
            }
            Some(p) => (p.key(period), run_point(layers, &flow, p, period)),
        })
        .collect();
    Setup { flow, designs }
}

/// Signs off one design; returns the op's digest: the SSTA report digest,
/// the worst-path design sigma, the worst slack of the full sweep and
/// every path's Monte-Carlo mean and sigma.
fn op(layers: &mut Layers, flow: &Flow, run: &FlowRun) -> u64 {
    let design = &run.synthesis.design;
    let mut graph = layers
        .call("sta.graph_build", || {
            TimingGraph::new(
                design.clone(),
                &flow.stat.mean,
                &run.synthesis.report.config,
            )
        })
        .unwrap_or_else(|e| panic!("graph build: {e}"));
    graph.set_threads(1);
    layers
        .call("sta.full_propagate", || {
            graph.invalidate_all();
            graph.update()
        })
        .unwrap_or_else(|e| panic!("propagate: {e}"));
    let (paths, timing) = layers
        .call("sta.worst_paths", || {
            worst_paths(
                design,
                &flow.stat.mean,
                &flow.stat,
                &run.synthesis.report,
                flow.config.rho,
            )
        })
        .unwrap_or_else(|e| panic!("worst paths: {e}"));
    let ssta = layers
        .call("sta.ssta", || {
            analyze_ssta(&graph, &flow.stat, SstaOptions::default())
        })
        .unwrap_or_else(|e| panic!("ssta: {e}"));
    let mut critical: Vec<&PathTiming> = paths.iter().collect();
    critical.sort_by(|a, b| (b.mean + 3.0 * b.sigma).total_cmp(&(a.mean + 3.0 * a.sigma)));
    let critical: Vec<PathTiming> = critical.into_iter().take(MC_PATHS).cloned().collect();
    let mc = layers
        .call("sta.path_mc", || {
            simulate_worst_paths(
                &critical,
                &flow.stat,
                ProcessCorner::Typical,
                VariationMode::GlobalAndLocal,
                MC_SAMPLES,
                MC_SEED,
                1,
            )
        })
        .unwrap_or_else(|e| panic!("path mc: {e}"));
    let mut words = vec![
        ssta.digest(),
        timing.sigma.to_bits(),
        graph.worst_slack().to_bits(),
    ];
    words.extend(
        mc.iter()
            .flat_map(|r| [r.mc.summary.mean.to_bits(), r.mc.summary.std_dev.to_bits()]),
    );
    fnv_words(&words)
}

/// Prints the digest of every op as `digests.txt` lines, with each op's
/// time on stderr.
pub fn print_digests() {
    let mut layers = Layers::new(false);
    let s = setup(&mut layers);
    for (key, run) in &s.designs {
        let t = Instant::now();
        let d = op(&mut layers, &s.flow, run);
        eprintln!("{key} {:.0} ms", ms_since(t));
        println!("signoff {key} {d:016x}");
    }
}

/// Runs the workload: set-up, one warm-up op (the first worst-path
/// extraction of a process is about twice as slow as later ones), then
/// whole passes over the designs in seeded order.
pub fn run(args: &Args, layers: &mut Layers) -> Report {
    let pins = pinned("signoff");
    let (setup_s, s) = median_setup(args.setup_reps, || setup(layers));
    let order = shuffled(s.designs.len(), args.seed, "e2ebench-signoff");
    let signoff = |layers: &mut Layers, d: usize| {
        let (key, run) = &s.designs[d];
        check(&pins, key, op(layers, &s.flow, run))
    };
    let correct = signoff(&mut Layers::new(false), order[0]);
    layers.begin_ops();
    let stats = closed_loop(args, order.len(), PASS_S, |i| {
        signoff(layers, order[i % order.len()])
    });
    Report::new(correct, setup_s, &stats)
}
