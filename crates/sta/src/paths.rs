//! Worst-path extraction and statistical path/design timing (§V.B).
//!
//! The paper measures a design's local variation by extracting, for every
//! unique endpoint, the worst (latest-arriving) path, attaching a
//! `(mean, sigma)` delay to every cell on it from the statistical library,
//! and convolving those into path and design distributions (eqs. 5–11).

use varitune_libchar::StatLibrary;
use varitune_liberty::Library;
use varitune_netlist::NetId;
use varitune_variation::convolve;

use crate::graph::{StaError, TimingReport};
use crate::mapped::MappedDesign;

/// One cell on an extracted path, with the operating point it was timed at.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct PathCellSample {
    /// Gate index in the netlist.
    pub gate: usize,
    /// Library cell name.
    pub cell: String,
    /// Output pin name the path leaves through.
    pub out_pin: String,
    /// Input pin the critical arc comes from (`None` for a launching
    /// flip-flop, which times from its clock).
    pub related_pin: Option<String>,
    /// Input slew at the critical arc (ns).
    pub slew: f64,
    /// Output load (pF).
    pub load: f64,
    /// Propagated (deterministic) cell delay (ns).
    pub delay: f64,
}

/// A worst path to one endpoint with its statistical parameters.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct PathTiming {
    /// Endpoint net the path captures at.
    pub endpoint: NetId,
    /// Cells launch-to-capture (launching flip-flop included when the path
    /// starts at a register).
    pub cells: Vec<PathCellSample>,
    /// Deterministic arrival at the endpoint (ns).
    pub arrival: f64,
    /// Path delay mean from the statistical library — eq. (5).
    pub mean: f64,
    /// Path delay sigma — eq. (9)/(10).
    pub sigma: f64,
}

impl PathTiming {
    /// Path depth = number of cells.
    pub fn depth(&self) -> usize {
        self.cells.len()
    }

    /// Mean plus `k` sigma — the paper plots mean + 3σ (Fig. 14).
    pub fn mean_plus_k_sigma(&self, k: f64) -> f64 {
        self.mean + k * self.sigma
    }
}

/// Design-level distribution — eq. (11) over per-endpoint worst paths.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct DesignTiming {
    /// Sum of worst-path means (ns).
    pub mean: f64,
    /// RSS of worst-path sigmas (ns).
    pub sigma: f64,
    /// Number of paths aggregated.
    pub path_count: usize,
}

impl DesignTiming {
    /// Aggregates path distributions per eq. (11).
    pub fn from_paths(paths: &[PathTiming]) -> Self {
        Self {
            mean: convolve::design_mean(paths.iter().map(|p| p.mean)),
            sigma: convolve::design_sigma(paths.iter().map(|p| p.sigma)),
            path_count: paths.len(),
        }
    }
}

/// One driven net's step on a worst path: the driver's cell, pins and
/// critical-arc statistics. A step depends only on its net's timing, so
/// it is resolved once and shared by every path through the net.
struct NetStep<'l> {
    gate: usize,
    cell: &'l str,
    out_pin: &'l str,
    related_pin: Option<&'l str>,
    /// The net the path continues from (`None` at a launching flip-flop).
    next: Option<NetId>,
    /// `(mean, sigma)` of the critical arc, queried on first use.
    stat: Option<(f64, f64)>,
}

/// Marks a net whose step has not been resolved yet.
const UNRESOLVED: u32 = u32::MAX;

/// Worst-path extraction with a per-net memo of resolved steps.
///
/// The walk resolves cells and pins capture-to-launch and then queries
/// statistics launch-to-capture, as a path read on its own would, so the
/// first error a path meets does not depend on what the memo holds. Only
/// successful resolutions are memoized.
struct PathWalker<'a, 'l> {
    design: &'a MappedDesign,
    lib: &'l Library,
    stat: &'a StatLibrary,
    report: &'a TimingReport,
    /// Index into `steps` per net, [`UNRESOLVED`] until first visited.
    step_of: Vec<u32>,
    steps: Vec<NetStep<'l>>,
    /// Nets of the current path, capture to launch.
    trail: Vec<u32>,
    /// Cell means and sigmas of the current path, launch to capture.
    means: Vec<f64>,
    sigmas: Vec<f64>,
}

impl<'a, 'l> PathWalker<'a, 'l> {
    fn new(
        design: &'a MappedDesign,
        lib: &'l Library,
        stat: &'a StatLibrary,
        report: &'a TimingReport,
    ) -> Self {
        PathWalker {
            design,
            lib,
            stat,
            report,
            step_of: vec![UNRESOLVED; report.nets.len()],
            steps: Vec::new(),
            trail: Vec::new(),
            means: Vec::new(),
            sigmas: Vec::new(),
        }
    }

    /// The step driving `net` (memoized), or `None` at a primary input.
    fn step(&mut self, net: NetId) -> Result<Option<u32>, StaError> {
        let ni = net.0 as usize;
        if self.step_of[ni] != UNRESOLVED {
            return Ok(Some(self.step_of[ni]));
        }
        let t = &self.report.nets[ni];
        let Some(gi) = t.driver else {
            return Ok(None);
        };
        let cell = self
            .design
            .cell_of(gi, self.lib)
            .ok_or_else(|| StaError::UnknownCell {
                gate: gi,
                name: self.design.cell_label(gi, self.lib),
            })?;
        let out_pin = cell
            .output_pins()
            .nth(t.out_pin)
            .ok_or(StaError::MissingArc {
                gate: gi,
                cell: cell.name.clone(),
            })?;
        let related_pin = t
            .crit_input
            .and_then(|k| cell.input_pins().nth(k))
            .map(|p| p.name.as_str());
        let id = self.steps.len() as u32;
        self.steps.push(NetStep {
            gate: gi,
            cell: &cell.name,
            out_pin: &out_pin.name,
            related_pin,
            next: t
                .crit_input
                .map(|k| self.design.netlist.gates[gi].inputs[k]),
            stat: None,
        });
        self.step_of[ni] = id;
        Ok(Some(id))
    }

    /// Statistics of the critical arc of the step driving `net`.
    fn step_stat(&mut self, net: u32, id: u32) -> Result<(f64, f64), StaError> {
        let step = &mut self.steps[id as usize];
        if let Some(stat) = step.stat {
            return Ok(stat);
        }
        let t = &self.report.nets[net as usize];
        let cell = self.design.cells[step.gate];
        // Query the precise critical arc when known; launching flip-flops
        // fall back to the pin-level worst (their only arc is clk->q).
        let stat = match t.crit_input {
            Some(k) => {
                self.stat
                    .delay_stat_arc_id(cell, t.out_pin, k, t.crit_input_slew, t.load)?
            }
            None => self
                .stat
                .delay_stat_id(cell, t.out_pin, t.crit_input_slew, t.load)?,
        };
        step.stat = Some(stat);
        Ok(stat)
    }

    fn path(&mut self, endpoint: NetId, rho: f64) -> Result<PathTiming, StaError> {
        // Walk critical-input pointers back to a launch point.
        self.trail.clear();
        let mut net = endpoint;
        while let Some(id) = self.step(net)? {
            self.trail.push(net.0);
            match self.steps[id as usize].next {
                Some(next) => net = next,
                None => break, // launching flip-flop
            }
        }
        // Attach statistics launch to capture.
        let mut cells = Vec::with_capacity(self.trail.len());
        self.means.clear();
        self.sigmas.clear();
        for i in (0..self.trail.len()).rev() {
            let ni = self.trail[i];
            let id = self.step_of[ni as usize];
            let (m, s) = self.step_stat(ni, id)?;
            self.means.push(m);
            self.sigmas.push(s);
            let t = &self.report.nets[ni as usize];
            let step = &self.steps[id as usize];
            cells.push(PathCellSample {
                gate: step.gate,
                cell: step.cell.to_string(),
                out_pin: step.out_pin.to_string(),
                related_pin: step.related_pin.map(str::to_string),
                slew: t.crit_input_slew,
                load: t.load,
                delay: t.cell_delay,
            });
        }
        let mean = convolve::path_mean(self.means.iter().copied());
        let sigma = convolve::path_sigma(&self.sigmas, rho);
        Ok(PathTiming {
            endpoint,
            cells,
            arrival: self.report.nets[endpoint.0 as usize].arrival,
            mean,
            sigma,
        })
    }
}

/// Extracts the worst path to `endpoint` by walking critical-input pointers
/// back to a launch point, then attaches statistical parameters from `stat`
/// with inter-cell correlation `rho` (the paper argues ρ = 0).
///
/// # Errors
///
/// Returns [`StaError`] if a cell or pin cannot be resolved or a table
/// cannot be evaluated.
///
/// # Panics
///
/// Panics if `rho` is outside `[-1, 1]`.
pub fn extract_path(
    design: &MappedDesign,
    lib: &Library,
    stat: &StatLibrary,
    report: &TimingReport,
    endpoint: NetId,
    rho: f64,
) -> Result<PathTiming, StaError> {
    PathWalker::new(design, lib, stat, report).path(endpoint, rho)
}

/// Extracts the worst path to **every unique endpoint** of `report` and
/// returns them together with the design-level aggregate. Each driven
/// net's step is resolved once and shared by every path through it; the
/// paths equal per-endpoint [`extract_path`] results bit for bit.
///
/// # Errors
///
/// Propagates the first [`StaError`] from [`extract_path`].
pub fn worst_paths(
    design: &MappedDesign,
    lib: &Library,
    stat: &StatLibrary,
    report: &TimingReport,
    rho: f64,
) -> Result<(Vec<PathTiming>, DesignTiming), StaError> {
    let mut walker = PathWalker::new(design, lib, stat, report);
    let mut seen = std::collections::BTreeSet::new();
    let mut paths = Vec::new();
    for ep in &report.endpoints {
        if !seen.insert(ep.net) {
            continue; // one worst path per unique endpoint
        }
        paths.push(walker.path(ep.net, rho)?);
    }
    let design_timing = DesignTiming::from_paths(&paths);
    Ok((paths, design_timing))
}

/// Parametric timing yield: the probability that *every* worst path meets
/// `deadline`, treating path delays as independent normals
/// `N(mean, sigma)` — the statistical view behind the paper's motivation
/// that a lower design sigma permits a smaller clock uncertainty.
pub fn timing_yield(paths: &[PathTiming], deadline: f64) -> f64 {
    paths
        .iter()
        .map(|p| varitune_variation::stats::meet_probability(p.mean, p.sigma, deadline))
        .product()
}

/// The smallest deadline at which [`timing_yield`] reaches `target`
/// (bisection to `tol`). This converts a sigma reduction into the paper's
/// ultimate currency: a faster usable clock at equal yield.
///
/// # Errors
///
/// [`StaError::InvalidParameter`] if `target` is not in `(0, 1)`, `tol`
/// is not finite and positive, or `paths` is empty. These are
/// caller-supplied statistical quantities — data, not invariants — so
/// they must never panic.
pub fn deadline_at_yield(paths: &[PathTiming], target: f64, tol: f64) -> Result<f64, StaError> {
    if !(target > 0.0 && target < 1.0) {
        return Err(StaError::InvalidParameter {
            reason: format!("yield target must be in (0, 1), got {target}"),
        });
    }
    // `tol <= 0.0` is false for NaN, but the finiteness check rejects NaN
    // on its own.
    if tol <= 0.0 || !tol.is_finite() {
        return Err(StaError::InvalidParameter {
            reason: format!("bisection tolerance must be finite and > 0, got {tol}"),
        });
    }
    if paths.is_empty() {
        return Err(StaError::InvalidParameter {
            reason: "need at least one path to bisect a deadline".to_string(),
        });
    }
    let mut lo = 0.0f64;
    let mut hi = paths
        .iter()
        .map(|p| p.mean + 10.0 * p.sigma)
        .fold(0.0, f64::max)
        .max(tol);
    while hi - lo > tol {
        let mid = 0.5 * (lo + hi);
        if timing_yield(paths, mid) >= target {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Ok(hi)
}

/// Path-depth histogram: `depths[d]` = number of worst paths with depth `d`
/// (the Fig. 12 data).
pub fn depth_histogram(paths: &[PathTiming]) -> Vec<usize> {
    let max = paths.iter().map(PathTiming::depth).max().unwrap_or(0);
    let mut h = vec![0usize; max + 1];
    for p in paths {
        h[p.depth()] += 1;
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{analyze, StaConfig};
    use crate::mapped::WireModel;
    use varitune_libchar::{generate_mc_libraries, generate_nominal, GenerateConfig};
    use varitune_netlist::{GateKind, Netlist};

    fn fixtures() -> (Library, StatLibrary) {
        let cfg = GenerateConfig::small_for_tests();
        let nominal = generate_nominal(&cfg);
        let mc = generate_mc_libraries(&nominal, &cfg, 25, 7);
        let stat = StatLibrary::from_libraries(&mc).unwrap();
        (nominal, stat)
    }

    fn chain_design(n: usize, cell: &str) -> MappedDesign {
        let mut nl = Netlist::new("chain");
        let mut prev = nl.add_input("a");
        for i in 0..n {
            let z = nl.add_net(format!("n{i}"));
            nl.add_gate(GateKind::Inv, vec![prev], vec![z]);
            prev = z;
        }
        nl.mark_output(prev);
        let lib = generate_nominal(&GenerateConfig::small_for_tests());
        MappedDesign::from_names(nl, &vec![cell; n], &lib, WireModel::default()).unwrap()
    }

    #[test]
    fn path_depth_matches_chain_length() {
        let (lib, stat) = fixtures();
        let d = chain_design(6, "INV_2");
        let r = analyze(&d, &lib, &StaConfig::with_clock_period(5.0)).unwrap();
        let ep = r.endpoints[0].net;
        let p = extract_path(&d, &lib, &stat, &r, ep, 0.0).unwrap();
        assert_eq!(p.depth(), 6);
        assert_eq!(p.cells[0].cell, "INV_2");
    }

    #[test]
    fn path_mean_close_to_deterministic_arrival() {
        let (lib, stat) = fixtures();
        let d = chain_design(6, "INV_2");
        let r = analyze(&d, &lib, &StaConfig::with_clock_period(5.0)).unwrap();
        let p = extract_path(&d, &lib, &stat, &r, r.endpoints[0].net, 0.0).unwrap();
        // The stat mean uses worst-over-arcs tables, so it sits at or just
        // above the deterministic arrival.
        assert!(
            p.mean >= p.arrival * 0.9 && p.mean <= p.arrival * 1.3,
            "mean {} vs arrival {}",
            p.mean,
            p.arrival
        );
    }

    #[test]
    fn sigma_grows_sublinearly_with_depth() {
        let (lib, stat) = fixtures();
        let cfg = StaConfig::with_clock_period(20.0);
        let short = {
            let d = chain_design(4, "INV_2");
            let r = analyze(&d, &lib, &cfg).unwrap();
            extract_path(&d, &lib, &stat, &r, r.endpoints[0].net, 0.0).unwrap()
        };
        let long = {
            let d = chain_design(16, "INV_2");
            let r = analyze(&d, &lib, &cfg).unwrap();
            extract_path(&d, &lib, &stat, &r, r.endpoints[0].net, 0.0).unwrap()
        };
        assert!(long.sigma > short.sigma);
        // eq. (10): sigma scales like sqrt(depth) for identical cells.
        let ratio = long.sigma / short.sigma;
        assert!((ratio - 2.0).abs() < 0.35, "ratio {ratio}");
        // Mean scales linearly, so sigma grows sublinearly vs mean.
        assert!(long.mean / short.mean > ratio);
    }

    #[test]
    fn rho_increases_path_sigma() {
        let (lib, stat) = fixtures();
        let d = chain_design(8, "INV_2");
        let r = analyze(&d, &lib, &StaConfig::with_clock_period(10.0)).unwrap();
        let p0 = extract_path(&d, &lib, &stat, &r, r.endpoints[0].net, 0.0).unwrap();
        let p5 = extract_path(&d, &lib, &stat, &r, r.endpoints[0].net, 0.5).unwrap();
        assert!(p5.sigma > p0.sigma);
        assert_eq!(p5.mean, p0.mean);
    }

    #[test]
    fn high_drive_chain_has_lower_sigma() {
        // The core Pelgrom effect the tuning method exploits.
        let (lib, stat) = fixtures();
        let cfg = StaConfig::with_clock_period(20.0);
        let weak = {
            let d = chain_design(8, "INV_1");
            let r = analyze(&d, &lib, &cfg).unwrap();
            extract_path(&d, &lib, &stat, &r, r.endpoints[0].net, 0.0).unwrap()
        };
        let strong = {
            let d = chain_design(8, "INV_8");
            let r = analyze(&d, &lib, &cfg).unwrap();
            extract_path(&d, &lib, &stat, &r, r.endpoints[0].net, 0.0).unwrap()
        };
        assert!(
            strong.sigma < weak.sigma,
            "{} vs {}",
            strong.sigma,
            weak.sigma
        );
    }

    #[test]
    fn worst_paths_dedup_unique_endpoints() {
        let (lib, stat) = fixtures();
        let mut nl = Netlist::new("two-ep");
        let a = nl.add_input("a");
        let x = nl.add_net("x");
        nl.add_gate(GateKind::Inv, vec![a], vec![x]);
        // The same net is marked PO twice — still one unique endpoint.
        nl.mark_output(x);
        nl.mark_output(x);
        let d = MappedDesign::from_names(nl, &["INV_1"], &lib, WireModel::default()).unwrap();
        let r = analyze(&d, &lib, &StaConfig::with_clock_period(5.0)).unwrap();
        let (paths, design_t) = worst_paths(&d, &lib, &stat, &r, 0.0).unwrap();
        assert_eq!(paths.len(), 1);
        assert_eq!(design_t.path_count, 1);
    }

    #[test]
    fn design_timing_aggregates_eq11() {
        let paths = vec![
            PathTiming {
                endpoint: NetId(0),
                cells: vec![],
                arrival: 1.0,
                mean: 1.0,
                sigma: 0.3,
            },
            PathTiming {
                endpoint: NetId(1),
                cells: vec![],
                arrival: 2.0,
                mean: 2.0,
                sigma: 0.4,
            },
        ];
        let d = DesignTiming::from_paths(&paths);
        assert!((d.mean - 3.0).abs() < 1e-12);
        assert!((d.sigma - 0.5).abs() < 1e-12);
        assert_eq!(d.path_count, 2);
    }

    #[test]
    fn depth_histogram_counts() {
        let mk = |n: usize| PathTiming {
            endpoint: NetId(n as u32),
            cells: (0..n)
                .map(|g| PathCellSample {
                    gate: g,
                    cell: "INV_1".into(),
                    out_pin: "Z".into(),
                    related_pin: Some("A".into()),
                    slew: 0.0,
                    load: 0.0,
                    delay: 0.0,
                })
                .collect(),
            arrival: 0.0,
            mean: 0.0,
            sigma: 0.0,
        };
        let h = depth_histogram(&[mk(1), mk(3), mk(3), mk(5)]);
        assert_eq!(h[1], 1);
        assert_eq!(h[3], 2);
        assert_eq!(h[5], 1);
        assert_eq!(h.len(), 6);
    }

    fn synthetic_path(mean: f64, sigma: f64) -> PathTiming {
        PathTiming {
            endpoint: NetId(0),
            cells: vec![],
            arrival: mean,
            mean,
            sigma,
        }
    }

    #[test]
    fn yield_limits_and_monotonicity() {
        let paths = vec![synthetic_path(1.0, 0.1), synthetic_path(1.5, 0.05)];
        assert!(timing_yield(&paths, 0.1) < 1e-6);
        assert!(timing_yield(&paths, 10.0) > 0.999_999);
        let y1 = timing_yield(&paths, 1.6);
        let y2 = timing_yield(&paths, 1.8);
        assert!(y2 > y1);
    }

    #[test]
    fn yield_of_single_path_matches_normal_cdf() {
        let p = vec![synthetic_path(2.0, 0.2)];
        // Deadline at mean + 3 sigma: ~99.87 %.
        let y = timing_yield(&p, 2.6);
        assert!((y - 0.99865).abs() < 1e-3, "{y}");
    }

    #[test]
    fn deadline_at_yield_inverts_timing_yield() {
        let paths = vec![
            synthetic_path(1.0, 0.08),
            synthetic_path(1.4, 0.05),
            synthetic_path(0.9, 0.12),
        ];
        let d = deadline_at_yield(&paths, 0.99, 1e-5).unwrap();
        let y = timing_yield(&paths, d);
        assert!((y - 0.99).abs() < 1e-3, "yield at recovered deadline: {y}");
        // Lower sigma paths reach the same yield earlier.
        let calm: Vec<PathTiming> = paths
            .iter()
            .map(|p| synthetic_path(p.mean, p.sigma * 0.5))
            .collect();
        assert!(deadline_at_yield(&calm, 0.99, 1e-5).unwrap() < d);
    }

    #[test]
    fn deadline_at_yield_rejects_bad_inputs_without_panicking() {
        let one = [synthetic_path(1.0, 0.1)];
        for bad in [0.0, 1.0, 1.5, -0.2, f64::NAN] {
            let err = deadline_at_yield(&one, bad, 1e-3).unwrap_err();
            assert!(matches!(err, StaError::InvalidParameter { .. }), "{err}");
        }
        let err = deadline_at_yield(&one, 0.9, 0.0).unwrap_err();
        assert!(matches!(err, StaError::InvalidParameter { .. }));
        let err = deadline_at_yield(&[], 0.9, 1e-3).unwrap_err();
        assert!(matches!(err, StaError::InvalidParameter { .. }));
    }

    /// The test library plus the full adder `AD2` (outputs `S`, `CO`).
    fn adder_fixtures() -> (Library, StatLibrary) {
        let mut cfg = GenerateConfig::small_for_tests();
        cfg.inventory.extend(
            varitune_libchar::arch::standard_inventory()
                .into_iter()
                .filter(|a| a.prefix == "AD2")
                .map(|mut a| {
                    a.drives.retain(|d| [1.0, 2.0].contains(d));
                    a
                }),
        );
        let nominal = generate_nominal(&cfg);
        let mc = generate_mc_libraries(&nominal, &cfg, 25, 11);
        let stat = StatLibrary::from_libraries(&mc).unwrap();
        (nominal, stat)
    }

    #[test]
    fn worst_paths_equal_per_endpoint_extraction_through_multi_output_cells() {
        // Two full adders in a ripple with reconvergent fanout: `n1`
        // feeds both the NAND and the first adder, both outputs of each
        // adder are endpoints, and `fa0`'s S and CO reconverge in `fa1`.
        // Paths through one adder leave by different output pins, so a
        // step memoized per gate instead of per driven net would hand S
        // paths the CO arc (or the reverse).
        let (lib, stat) = adder_fixtures();
        let mut nl = Netlist::new("ripple");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let cin = nl.add_input("cin");
        let n1 = nl.add_net("n1");
        nl.add_gate(GateKind::Inv, vec![a], vec![n1]);
        let n2 = nl.add_net("n2");
        nl.add_gate(GateKind::Nand, vec![n1, b], vec![n2]);
        let (s0, co0) = (nl.add_net("s0"), nl.add_net("co0"));
        nl.add_gate(GateKind::FullAdder, vec![n1, n2, cin], vec![s0, co0]);
        let (s1, co1) = (nl.add_net("s1"), nl.add_net("co1"));
        nl.add_gate(GateKind::FullAdder, vec![s0, n2, co0], vec![s1, co1]);
        let q = nl.add_net("q");
        nl.add_gate(GateKind::Dff, vec![co1], vec![q]);
        let z = nl.add_net("z");
        nl.add_gate(GateKind::Inv, vec![q], vec![z]);
        for net in [s0, co0, s1, co1, s1, z] {
            nl.mark_output(net);
        }
        let cells = ["INV_2", "ND2_1", "AD2_1", "AD2_2", "DF_1", "INV_1"];
        let d = MappedDesign::from_names(nl, &cells, &lib, WireModel::default()).unwrap();
        let r = analyze(&d, &lib, &StaConfig::with_clock_period(5.0)).unwrap();
        for rho in [0.0, 0.3] {
            let (paths, design_t) = worst_paths(&d, &lib, &stat, &r, rho).unwrap();
            let mut unique = Vec::new();
            for ep in &r.endpoints {
                if !unique.contains(&ep.net) {
                    unique.push(ep.net);
                }
            }
            assert_eq!(paths.len(), unique.len());
            let mut fresh = Vec::new();
            for (p, &ep) in paths.iter().zip(&unique) {
                let want = extract_path(&d, &lib, &stat, &r, ep, rho).unwrap();
                assert_eq!(p, &want, "endpoint {ep:?}");
                for (x, y) in [
                    (p.mean, want.mean),
                    (p.sigma, want.sigma),
                    (p.arrival, want.arrival),
                ] {
                    assert_eq!(x.to_bits(), y.to_bits(), "endpoint {ep:?}");
                }
                fresh.push(want);
            }
            let want_t = DesignTiming::from_paths(&fresh);
            assert_eq!(design_t.mean.to_bits(), want_t.mean.to_bits());
            assert_eq!(design_t.sigma.to_bits(), want_t.sigma.to_bits());
            // Both adders are left through both of their output pins.
            for gate in [2, 3] {
                let mut pins: Vec<&str> = paths
                    .iter()
                    .flat_map(|p| &p.cells)
                    .filter(|c| c.gate == gate)
                    .map(|c| c.out_pin.as_str())
                    .collect();
                pins.sort_unstable();
                pins.dedup();
                assert_eq!(pins, ["CO", "S"], "adder gate {gate}");
            }
        }
    }

    #[test]
    fn path_from_ff_includes_launching_ff() {
        let (lib, stat) = fixtures();
        let mut nl = Netlist::new("ffpath");
        let d0 = nl.add_input("d0");
        let q0 = nl.add_net("q0");
        nl.add_gate(GateKind::Dff, vec![d0], vec![q0]);
        let x = nl.add_net("x");
        nl.add_gate(GateKind::Inv, vec![q0], vec![x]);
        let q1 = nl.add_net("q1");
        nl.add_gate(GateKind::Dff, vec![x], vec![q1]);
        let d =
            MappedDesign::from_names(nl, &["DF_1", "INV_2", "DF_1"], &lib, WireModel::default())
                .unwrap();
        let r = analyze(&d, &lib, &StaConfig::with_clock_period(5.0)).unwrap();
        let ep = r.endpoints.iter().find(|e| e.net == NetId(2)).unwrap();
        let p = extract_path(&d, &lib, &stat, &r, ep.net, 0.0).unwrap();
        // Launching DF_1 + INV_2 = depth 2.
        assert_eq!(p.depth(), 2);
        assert_eq!(p.cells[0].cell, "DF_1");
        assert_eq!(p.cells[1].cell, "INV_2");
    }
}
