//! `serve_mix`: an in-process `varitune-serve` (one worker) fed by one
//! closed-loop client. Most requests are cached reads (`sta`, `ssta`,
//! `signoff`, `tune`) against two hot libraries; a fifth are writes:
//! never-seen library variants that pay parse → screen → characterize →
//! baseline. Every frame carries the full ~6 MB Liberty text, so the serve
//! protocol dominates and synthesis (on the small MCU the server is
//! configured with) barely appears.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::time::Instant;

use varitune_core::quarantine::Strictness;
use varitune_core::screen_library;
use varitune_libchar::{generate_nominal, GenerateConfig, StatLibrary};
use varitune_liberty::{parse_library_recovering_threads, write_library};
use varitune_netlist::{generate_mcu, McuConfig};
use varitune_serve::registry::{FlowSpec, FlowTemplate};
use varitune_serve::{fnv1a64, Client, Registry, Request, ServeConfig, Server};
use varitune_trace::json;

use crate::common::{
    check, closed_loop, ms_since, pinned, quantile, shuffled, Args, Layers, Report,
};

/// Hot libraries (renamed copies of one generated library: distinct
/// content hashes, identical timing).
const HOT: usize = 2;
/// The read kinds every hot library is asked for.
const READS: [&str; 4] = ["sta", "ssta", "signoff", "tune"];
/// Writes (never-seen library variants) per pass.
const WRITES: usize = 4;
/// Ops per pass: every hot read twice, plus the writes.
const PASS: usize = 2 * HOT * READS.len() + WRITES;
/// Nominal duration of a pass on the reference VM.
const PASS_S: f64 = 4.0;
/// Request parameters shared by every frame (server defaults otherwise:
/// 6 MC libraries, seed 7, strict ingestion, sigma ceiling 0.02).
const PARAMS: &str = ",\"threads\":1,\"clock_period_ps\":8000";

fn server_config() -> ServeConfig {
    ServeConfig {
        workers: 1,
        ..ServeConfig::for_tests()
    }
}

/// The generated library's Liberty text with its name prefixed by `tag`.
fn variant(pristine: &str, tag: &str) -> String {
    pristine.replacen("library (", &format!("library ({tag}"), 1)
}

fn frame(kind: &str, id: &str, library: &str) -> String {
    let mut f = String::with_capacity(library.len() + 128);
    f.push_str(&format!(
        "{{\"kind\":\"{kind}\",\"id\":\"{id}\",\"library\":"
    ));
    json::write_escaped(&mut f, library);
    f.push_str(PARAMS);
    f.push('}');
    f
}

/// Every frame of the workload, rendered before timing starts. A write's
/// frame is spliced from two pre-rendered halves around its variant tag
/// (one 6 MB copy, about a millisecond, inside the op).
struct Frames {
    pristine: String,
    hot_texts: Vec<String>,
    /// `(key, frame)` of every hot read.
    reads: Vec<(String, String)>,
    write_head: String,
    write_tail: String,
}

impl Frames {
    fn render() -> Self {
        let lib = generate_nominal(&GenerateConfig::full());
        let pristine = write_library(&lib).unwrap_or_else(|e| panic!("write library: {e}"));
        let hot_texts: Vec<String> = (0..HOT)
            .map(|h| variant(&pristine, &format!("hot{h}_")))
            .collect();
        let mut reads = Vec::new();
        for (h, text) in hot_texts.iter().enumerate() {
            for kind in READS {
                let key = format!("hot{h}/{kind}");
                reads.push((key.clone(), frame(kind, &key, text)));
            }
        }
        let marker = "library (";
        let whole = frame("sta", "write", &pristine);
        let at = whole
            .find(marker)
            .unwrap_or_else(|| panic!("no library group"))
            + marker.len();
        Self {
            write_head: whole[..at].to_string(),
            write_tail: whole[at..].to_string(),
            pristine,
            hot_texts,
            reads,
        }
    }

    fn write_frame(&self, tag: &str) -> String {
        [self.write_head.as_str(), tag, self.write_tail.as_str()].concat()
    }
}

/// A write response with its content hash blanked, so every write of the
/// run must answer the same bytes.
fn normalize_write(response: &str) -> String {
    let field = "\"lib_hash\":\"";
    match response.find(field) {
        Some(at) => {
            let start = at + field.len();
            let end = (start + 16).min(response.len());
            [&response[..start], &response[end..]].concat()
        }
        None => response.to_string(),
    }
}

fn digest(response: &str) -> u64 {
    fnv1a64(response.as_bytes())
}

/// A running server, its one client, and the first answer to every hot
/// read.
struct Setup {
    server: Server,
    client: Client,
    first: BTreeMap<String, String>,
}

fn setup(frames: &Frames) -> Setup {
    let server = Server::start(server_config()).unwrap_or_else(|e| panic!("server: {e}"));
    let mut client = Client::connect(server.addr()).unwrap_or_else(|e| panic!("connect: {e}"));
    let first = frames
        .reads
        .iter()
        .map(|(key, f)| {
            let response = client
                .call(f)
                .unwrap_or_else(|e| panic!("warm-up {key}: {e}"));
            (key.clone(), response)
        })
        .collect();
    Setup {
        server,
        client,
        first,
    }
}

/// The op at global index `i`: a hot read (index into `frames.reads`) or a
/// write of variant `(pass, k)`.
#[derive(Clone, Copy)]
enum Op {
    Read(usize),
    Write(usize, usize),
}

fn op_at(order: &[usize], i: usize) -> Op {
    let slot = order[i % PASS];
    let reads = 2 * HOT * READS.len();
    if slot < reads {
        Op::Read(slot % (HOT * READS.len()))
    } else {
        Op::Write(i / PASS, slot - reads)
    }
}

fn write_tag(seed: u64, pass: usize, k: usize) -> String {
    format!("w{seed:x}_{pass}_{k}_")
}

/// Prints the digest of every hot read and of a normalized write.
pub fn print_digests() {
    let frames = Frames::render();
    let mut s = setup(&frames);
    for (key, response) in &s.first {
        println!("serve_mix {key} {:016x}", digest(response));
    }
    let tag = write_tag(0, 0, 0);
    let response = s
        .client
        .call(&frames.write_frame(&tag))
        .unwrap_or_else(|e| panic!("write: {e}"));
    println!(
        "serve_mix write/sta {:016x}",
        digest(&normalize_write(&response))
    );
    eprintln!("{response}");
    drop(s.client);
    let _ = s.server.shutdown();
}

/// Runs the workload: render every frame, start the server and warm its
/// caches with one answer per hot read (the set-up, repeated), one
/// warm-up write, then whole passes of the seeded mix.
pub fn run(args: &Args, layers: &mut Layers) -> Report {
    let pins = pinned("serve_mix");
    let frames = Frames::render();
    let mut setup_times = Vec::new();
    let mut s = None;
    for _ in 0..args.setup_reps.max(1) {
        if let Some(prev) = s.take() {
            let Setup { server, client, .. } = prev;
            drop(client);
            let _ = server.shutdown();
        }
        let t = Instant::now();
        s = Some(setup(&frames));
        setup_times.push(t.elapsed().as_secs_f64());
    }
    let mut s = s.unwrap_or_else(|| unreachable!("at least one set-up"));
    let setup_s = quantile(&setup_times, 0.5);
    let mut correct = s
        .first
        .iter()
        .all(|(key, r)| r.contains("\"ok\":") && check(&pins, key, digest(r)));

    let order = shuffled(PASS, args.seed, "e2ebench-serve-mix");
    let mut writes = 0u64;
    let mut write = |client: &mut Client, tag: &str| {
        let response = client
            .call(&frames.write_frame(tag))
            .unwrap_or_else(|e| panic!("write {tag}: {e}"));
        writes += 1;
        check(&pins, "write/sta", digest(&normalize_write(&response)))
    };
    correct &= write(&mut s.client, &write_tag(args.seed, usize::MAX, 0));

    layers.begin_ops();
    let mut hit_ms = Vec::new();
    let mut miss_ms = Vec::new();
    let stats = closed_loop(args, PASS, PASS_S, |i| {
        let t = Instant::now();
        match op_at(&order, i) {
            Op::Read(r) => {
                let (key, f) = &frames.reads[r];
                let response = s
                    .client
                    .call(f)
                    .unwrap_or_else(|e| panic!("read {key}: {e}"));
                hit_ms.push(ms_since(t));
                let same = s.first.get(key) == Some(&response);
                if !same {
                    eprintln!("{key}: response differs from its first answer");
                }
                same
            }
            Op::Write(pass, k) => {
                let ok = write(&mut s.client, &write_tag(args.seed, pass, k));
                miss_ms.push(ms_since(t));
                ok
            }
        }
    });

    // Ledger: one characterization per hot library and per write, no shed
    // or failed job.
    let registry = s.server.registry();
    let characterizations = registry.characterizations.load(Ordering::Relaxed);
    let lookups = |c: &varitune_serve::CacheStats| {
        let get = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::Relaxed);
        (
            get(&c.hits),
            get(&c.hits) + get(&c.computes) + get(&c.failures) + get(&c.full_rejections),
        )
    };
    let (hits, total) = [
        lookups(&registry.libs.stats),
        lookups(&registry.flows.stats),
        lookups(&registry.baselines.stats),
    ]
    .iter()
    .fold((0, 0), |(h, t), &(dh, dt)| (h + dh, t + dt));
    let served = s.server.stats();
    let ledger_ok = characterizations == HOT as u64 + writes
        && served.jobs_shed == 0
        && served.jobs_ok == served.jobs_completed;
    if !ledger_ok {
        eprintln!(
            "ledger mismatch: {characterizations} characterizations for {HOT} hot libraries \
             and {writes} writes; {served:?}"
        );
    }
    correct &= ledger_ok;

    if layers.enabled() {
        let frame_bytes: usize = frames.reads.iter().map(|(_, f)| f.len()).sum();
        layers.set("serve.hit_ms", quantile(&hit_ms, 0.5));
        layers.set("serve.miss_ms", quantile(&miss_ms, 0.5));
        layers.set(
            "serve.frame_mb",
            frame_bytes as f64 / frames.reads.len() as f64 / 1e6,
        );
        layers.set("serve.characterizations", characterizations as f64);
        layers.set("serve.hit_ratio", hits as f64 / total as f64);
        layers.set("serve.jobs_shed", served.jobs_shed as f64);
        correct &= probe_layers(layers, &frames, args.seed);
    }
    let report = Report::new(correct, setup_s, &stats);
    drop(s.client);
    let _ = s.server.shutdown();
    report
}

/// Times, outside the measured loop, the layer calls a request makes inside
/// the server: decoding and hashing a frame, the registry's flow and
/// baseline layers called directly on never-seen variants, and under them
/// parsing, screening, characterization and design generation.
fn probe_layers(layers: &mut Layers, frames: &Frames, seed: u64) -> bool {
    layers.begin_probes();
    let mut ok = true;
    for (key, f) in &frames.reads {
        let request = layers.call("serve.decode", || Request::parse(f));
        ok &= request.is_ok_and(|r| r.id == *key);
    }
    for text in &frames.hot_texts {
        layers.call("serve.hash", || fnv1a64(text.as_bytes()));
    }
    let config = server_config();
    let registry = Registry::new(
        FlowTemplate {
            generate: config.generate.clone(),
            mcu: config.mcu.clone(),
            rho: config.rho,
        },
        8,
        8,
        8,
    );
    let spec = FlowSpec {
        strictness: Strictness::Strict,
        seed: 7,
        mc_libraries: 6,
        threads: 1,
    };
    for k in 0..2 {
        let text = variant(&frames.pristine, &format!("probe{seed:x}_{k}_"));
        ok &= layers
            .call("serve.registry.flow", || registry.flow(&text, spec))
            .is_ok();
        ok &= layers
            .call("serve.registry.baseline", || {
                registry.baseline(&text, spec, 8000)
            })
            .is_ok();
        let (parsed, diagnostics) = layers.call("liberty.parse", || {
            parse_library_recovering_threads(&text, 1)
        });
        let screened = layers.call("core.screen", || {
            screen_library(&parsed, &diagnostics, Strictness::Strict)
        });
        let Ok((lib, _)) = screened else {
            return false;
        };
        let stat = layers.call("libchar.characterize", || {
            StatLibrary::try_from_monte_carlo(&lib, &config.generate, 6, 7, 1, true)
        });
        ok &= stat.is_ok();
        layers.call("netlist.generate", || {
            generate_mcu(&McuConfig::small_for_tests())
        });
    }
    ok
}
