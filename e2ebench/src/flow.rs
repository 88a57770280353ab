//! The paper flow as the benchmark drives it: `Flow::prepare` at paper
//! scale, and synthesis plus worst-path extraction at two fixed clocks,
//! untuned or for one Table-2 point. Untraced, each piece is the public
//! `Flow` call; traced, it is split into timed layer calls doing the same
//! work.

use varitune_core::flow::{Flow, FlowConfig, FlowRun};
use varitune_core::{tune, FlowReport, TuningMethod, TuningParams};
use varitune_libchar::{generate_nominal, StatLibrary};
use varitune_netlist::generate_mcu;
use varitune_sta::paths::worst_paths;
use varitune_synth::{synthesize, LibraryConstraints, SynthConfig};

use crate::common::Layers;

/// The two clock periods (ns): just above the design's minimum period
/// with the guard band in place, and a relaxed one.
pub const PERIODS: [f64; 2] = [9.5, 15.0];
/// Clock guard band (ns), about 12 % of the unguarded minimum period, like
/// the paper's 300 ps on 2.41 ns.
const UNCERTAINTY: f64 = 1.0;

/// Synthesis settings at `period`, on one thread (results are
/// bit-identical at any thread count; one thread keeps timing steady).
pub fn synth_config(period: f64) -> SynthConfig {
    let mut cfg = SynthConfig::with_clock_period(period);
    cfg.sta.clock_uncertainty = UNCERTAINTY;
    cfg.threads = 1;
    cfg
}

/// `Flow::prepare` of the paper-scale flow on one thread. Traced, it is
/// split into library generation, characterization and design generation,
/// which is exactly what `Flow::prepare` does for a generated library.
pub fn prepare(layers: &mut Layers) -> Flow {
    let config = FlowConfig {
        threads: 1,
        ..FlowConfig::paper_scale()
    };
    if !layers.enabled() {
        return Flow::prepare(config).unwrap_or_else(|e| panic!("prepare: {e}"));
    }
    let nominal = layers.call("libchar.generate_nominal", || {
        generate_nominal(&config.generate)
    });
    let stat = layers
        .call("libchar.characterize", || {
            StatLibrary::try_from_monte_carlo(
                &nominal,
                &config.generate,
                config.mc_libraries,
                config.seed,
                config.threads,
                true,
            )
        })
        .unwrap_or_else(|_| panic!("characterization cancelled"));
    let netlist = layers.call("netlist.generate", || generate_mcu(&config.mcu));
    let report = FlowReport::pristine(config.strictness, nominal.cells.len());
    Flow {
        config,
        nominal,
        stat,
        netlist,
        report,
    }
}

/// `Flow::run`: synthesis, then worst-path extraction. Traced, the two
/// layer calls are timed separately.
pub fn run_flow(
    layers: &mut Layers,
    flow: &Flow,
    constraints: &LibraryConstraints,
    cfg: &SynthConfig,
) -> FlowRun {
    if !layers.enabled() {
        return flow
            .run(constraints, cfg)
            .unwrap_or_else(|e| panic!("flow run: {e}"));
    }
    let synthesis = layers
        .call("synth.synthesize", || {
            synthesize(&flow.netlist, &flow.stat.mean, constraints, cfg)
        })
        .unwrap_or_else(|e| panic!("synthesis: {e}"));
    let (paths, design) = layers
        .call("sta.worst_paths", || {
            worst_paths(
                &synthesis.design,
                &flow.stat.mean,
                &flow.stat,
                &synthesis.report,
                flow.config.rho,
            )
        })
        .unwrap_or_else(|e| panic!("worst paths: {e}"));
    FlowRun {
        synthesis,
        paths,
        design,
    }
}

/// `tune` of one Table-2 point, timed and counted when traced.
fn tune_point(layers: &mut Layers, flow: &Flow, point: Point) -> LibraryConstraints {
    let tuned = layers.call("core.tune", || tune(&flow.stat, point.method, point.params));
    if layers.enabled() {
        layers.add_count(
            "core.tune",
            "core.restricted_pins",
            tuned.restricted_pins as u64,
        );
    }
    tuned.constraints
}

/// One Table-2 point.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    /// The tuning method.
    pub method: TuningMethod,
    /// Its parameters.
    pub params: TuningParams,
}

impl Point {
    /// The pin key of this point's run at clock `period`.
    pub fn key(&self, period: usize) -> String {
        format!(
            "p{}/{}/{}",
            PERIODS[period],
            self.method.to_string().replace(' ', "-"),
            self.params.varied_value(self.method)
        )
    }
}

/// One Table-2 point at clock `period`. Untraced it is the public
/// `Flow::run_tuned`; traced it is the same work as three timed layer
/// calls, which must reproduce `run_tuned` bit for bit (both are checked
/// against the same pins).
pub fn run_point(layers: &mut Layers, flow: &Flow, point: Point, period: usize) -> FlowRun {
    let cfg = synth_config(PERIODS[period]);
    if !layers.enabled() {
        return flow
            .run_tuned(point.method, point.params, &cfg)
            .unwrap_or_else(|e| panic!("tuned run: {e}"))
            .1;
    }
    let constraints = tune_point(layers, flow, point);
    run_flow(layers, flow, &constraints, &cfg)
}

/// The pin key of the baseline run at clock `period`.
pub fn baseline_key(period: usize) -> String {
    format!("p{}/baseline", PERIODS[period])
}
