//! The optimist benchmark: one command per workload, printing its
//! end-to-end metrics (`--trace 0`) or its per-layer metrics from a
//! separate traced run (`--trace 1`) as the last line of standard output.
//!
//! ```text
//! cargo run --release --manifest-path optbench/Cargo.toml -- \
//!     --workload corpus|serve_mix --seed N --seconds S --trace 0|1
//! ```
//!
//! Every workload runs the same three phases over its own inputs, with a
//! different share of the run in each:
//!
//! 1. set-up, repeated several times: compile and optimise the inputs,
//!    start a store-backed `optimist-serve` daemon in-process, and (for
//!    `serve_mix`) pre-warm it;
//! 2. allocation sweeps: every function once per strategy, repeated, each
//!    repetition checked against the first for byte-identical results;
//!    then every entry point simulated through its allocation and checked
//!    against the virtual-register run of the same module;
//! 3. serving: a closed loop of [`serve::CLIENTS`] connections sending a
//!    seeded mix of exact repeats, regrouped modules and batch key fetches,
//!    plus never-seen modules — sent one at a time before the loop by the
//!    compile workloads, released inside it by `serve_mix` — every answer
//!    checked against a direct allocation.
//!
//! Timings are normalised for the host's speed by the `calib` module;
//! `optbench/README.md` describes every metric.
//!
//! The run exits 1 if any operation failed or disagreed with its
//! reference, and 2 on bad arguments or when the benchmark cannot run.

mod alloc;
mod calib;
mod serve;
mod stats;
mod trace;

use alloc::{Entry, Unit, STRATEGIES};
use calib::Calibrated;
use optimist_regalloc::Strategy;
use optimist_sim::Scalar;
use optimist_workloads::{generate_routine, programs, DriverArg, GenConfig};
use serve::{ColdQueue, Daemon, ServeSet};
use stats::{median, percentile, Tally};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Threads the simulator check may use (it runs untimed).
const SIM_THREADS: usize = 2;
/// Sweeps each strategy gets even past the sweep budget: the first is the
/// reference the second must reproduce.
const MIN_REPS: usize = 2;

/// The end-to-end metrics, in output order, with their units.
const END_TO_END: [(&str, &str); 14] = [
    ("alloc_s.chaitin", "s"),
    ("alloc_s.briggs", "s"),
    ("alloc_s.irc", "s"),
    ("alloc_s.ssa", "s"),
    ("cycles.chaitin", "cycles"),
    ("cycles.briggs", "cycles"),
    ("cycles.irc", "cycles"),
    ("cycles.ssa", "cycles"),
    ("warm_ms.p50", "ms"),
    ("warm_ms.p99", "ms"),
    ("cold_ms.p50", "ms"),
    ("rps", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

const CLASSIC: [&str; 3] = ["chaitin", "briggs", "irc"];
const AGGRESSIVE: [&str; 2] = ["chaitin", "briggs"];
const ALL: [&str; 4] = ["chaitin", "briggs", "irc", "ssa"];

/// The per-layer metrics: `(name, unit)`, strategy suffixes expanded.
fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let mut add = |stem: &str, unit: &'static str, tags: &[&str]| {
        if tags.is_empty() {
            out.push((stem.to_string(), unit));
        }
        for t in tags {
            out.push((format!("{stem}.{t}"), unit));
        }
    };
    add("frontend.compile_ms", "ms", &[]);
    add("opt.optimize_ms", "ms", &[]);
    add("ir.insts", "count", &[]);
    for stem in [
        "analysis.renumber_ms",
        "analysis.cfg_ms",
        "analysis.liveness_ms",
        "analysis.loops_ms",
    ] {
        add(stem, "ms", &CLASSIC);
    }
    add("analysis.renumber_calls", "count", &CLASSIC);
    add("regalloc.coalesce_ms", "ms", &AGGRESSIVE);
    add("regalloc.simplify_ms", "ms", &AGGRESSIVE);
    add("regalloc.irc_ms", "ms", &["irc"]);
    for stem in [
        "regalloc.costs_ms",
        "regalloc.select_ms",
        "regalloc.spill_ms",
    ] {
        add(stem, "ms", &CLASSIC);
    }
    add("regalloc.graph_ms", "ms", &ALL);
    add("regalloc.graph_nodes", "count", &ALL);
    add("regalloc.graph_edges", "count", &ALL);
    for stem in ["construct_ms", "spill_ms", "color_ms", "destruct_ms"] {
        add(&format!("regalloc.ssa.{stem}"), "ms", &[]);
    }
    add("regalloc.passes", "count", &ALL);
    add("regalloc.spilled", "count", &ALL);
    add("regalloc.spill_cost", "cost", &ALL);
    add("regalloc.coalesced", "count", &ALL);
    add("machine.code_bytes", "bytes", &ALL);
    for stem in ["build_ms", "simplify_ms", "color_ms", "spill_ms"] {
        add(&format!("regalloc.pass.{stem}"), "ms", &ALL);
    }
    add("regalloc.replay_matched", "count", &[]);
    add("regalloc.replay_unchecked", "count", &[]);
    add("sim.verify_ms", "ms", &[]);
    for stem in ["serve.parse_ms", "serve.canonical_ms", "serve.json_ms"] {
        add(stem, "ms", &[]);
    }
    for stem in [
        "serve.memo_hits",
        "serve.cache_hits",
        "serve.store_hits",
        "serve.misses",
    ] {
        add(stem, "1/req", &[]);
    }
    add("serve.hit_ratio", "ratio", &[]);
    add("store.get_us", "us", &[]);
    add("store.put_us", "us", &[]);
    add("store.bytes", "bytes", &[]);
    add("failed_frac", "ratio", &[]);
    add("trace.overhead_pct", "%", &[]);
    out
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad {flag} `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse().ok().filter(|&s| s > 0).ok_or_else(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// FT source of one module of a workload and the calls that check it.
struct Source {
    text: String,
    entries: Vec<Entry>,
}

/// How a workload divides its run.
struct Plan {
    /// Set-ups per run; `setup_s` is their median. A short set-up is
    /// repeated more often, so that its median is as steady as a long one's.
    setups: usize,
    /// Share of `--seconds` spent in allocation sweeps; serving gets the
    /// rest.
    sweep_share: f64,
    /// Send each unit and then each cold module once, one at a time,
    /// before the closed loop (the compile workloads); otherwise the daemon
    /// is pre-warmed during set-up and the loop releases the cold modules.
    cold_start: bool,
    /// Salted copies of every unit to send cold.
    cold_variants: u64,
    /// Functions the daemon's memory cache holds.
    cache_capacity: usize,
}

struct Inputs {
    units: Vec<Source>,
    /// Never-seen modules the closed loop releases at a fixed rate.
    cold: Vec<Source>,
    plan: Plan,
}

fn driver_args(args: &[DriverArg]) -> Vec<Scalar> {
    args.iter()
        .map(|a| match *a {
            DriverArg::Int(i) => Scalar::Int(i),
            DriverArg::Float(f) => Scalar::Float(f),
        })
        .collect()
}

/// Generated routines `first..first + count` (the generator seeds),
/// `per_module` to a module. Fixed seeds give every run the same amount of
/// work. They fill the serving working set; the simulator check runs on
/// the corpus drivers.
fn routines(prefix: &str, first: u64, count: u64, per_module: u64) -> Vec<Source> {
    (first..first + count)
        .step_by(per_module as usize)
        .map(|m| Source {
            text: (m..(m + per_module).min(first + count))
                .map(|i| generate_routine(&format!("{prefix}{i}"), i, &GenConfig::default()))
                .collect(),
            entries: Vec::new(),
        })
        .collect()
}

/// Warm generated routines in `serve_mix`, four to a module, and the
/// never-seen ones its closed loop releases, one to a module.
const MIX_WARM_ROUTINES: u64 = 16;
const MIX_COLD_ROUTINES: u64 = 80;

fn inputs(workload: &str) -> Result<Inputs, String> {
    let corpus = |full: bool| -> Vec<Source> {
        programs()
            .into_iter()
            .map(|p| Source {
                entries: vec![Entry {
                    func: p.driver.to_string(),
                    args: driver_args(if full { &p.driver_args } else { &p.smoke_args }),
                }],
                text: p.source,
            })
            .collect()
    };
    Ok(match workload {
        // The paper's traffic: many mid-sized functions, full-size drivers.
        "corpus" => Inputs {
            units: corpus(true),
            cold: Vec::new(),
            plan: Plan {
                setups: 31,
                sweep_share: 0.6,
                cold_start: true,
                cold_variants: 4,
                cache_capacity: 4096,
            },
        },
        // Serving traffic over a warm set larger than the memory cache,
        // with never-seen routines writing beside the reads.
        "serve_mix" => {
            let mut units = corpus(false);
            units.extend(routines("W", 0, MIX_WARM_ROUTINES, 4));
            Inputs {
                units,
                cold: routines("C", MIX_WARM_ROUTINES, MIX_COLD_ROUTINES, 1),
                plan: Plan {
                    setups: 5,
                    sweep_share: 0.4,
                    cold_start: false,
                    cold_variants: 0,
                    cache_capacity: 16,
                },
            }
        }
        _ => return Err(format!("unknown workload `{workload}`")),
    })
}

/// Compile and optimise every source, with spans around both layers.
fn build(sources: &[Source], tracer: &Tracer) -> Result<Vec<Unit>, String> {
    sources
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut module = tracer
                .span("frontend.compile", "", i as u64, None, |_| {
                    optimist_frontend::compile(&s.text)
                })
                .map_err(|e| format!("workload source does not compile: {e}"))?;
            tracer.span("opt.optimize", "", i as u64, None, |_| {
                optimist_opt::optimize_module(&mut module)
            });
            Ok(Unit {
                module,
                entries: s.entries.clone(),
            })
        })
        .collect()
}

/// Peak resident set of this process, in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Scratch space inside the benchmark's own directory.
fn scratch_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("runs")
}

fn stat(stats: &Option<optimist_serve::Json>, path: &[&str]) -> f64 {
    let mut v = stats.as_ref();
    for p in path {
        v = v.and_then(|j| j.get(p));
    }
    v.and_then(optimist_serve::Json::as_f64).unwrap_or(0.0)
}

struct Run {
    metrics: BTreeMap<String, f64>,
    tally: Tally,
}

/// Run the workload with its stores in a scratch directory of its own,
/// removed afterwards whatever the outcome.
fn run(args: &Args) -> Result<Run, String> {
    let scratch = scratch_dir().join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&scratch)
        .map_err(|e| format!("cannot create {}: {e}", scratch.display()))?;
    let result = run_in(args, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    result
}

fn run_in(args: &Args, scratch: &Path) -> Result<Run, String> {
    let inputs = inputs(&args.workload)?;
    let tracer = Tracer::new(args.trace);
    let off = Tracer::new(false);
    let seconds = Duration::from_secs(args.seconds);
    let plan = &inputs.plan;

    // 1. Set-up, several times; the last daemon stays up.
    let mut setup_s = Vec::new();
    let mut clock = Calibrated::new();
    let mut kept = None;
    for i in 0..plan.setups {
        let last = i + 1 == plan.setups;
        let t = Instant::now();
        let units = build(&inputs.units, if last { &tracer } else { &off })?;
        let daemon = Daemon::start(scratch.join(format!("store{i}")), plan.cache_capacity)?;
        let prewarm = if plan.cold_start {
            Vec::new()
        } else {
            serve::prewarm(&daemon, &units)?
        };
        setup_s.push(clock.scale(t.elapsed().as_secs_f64()));
        if last {
            kept = Some((units, daemon, prewarm));
        } else {
            daemon.stop()?;
        }
    }
    let (units, daemon, prewarm) = kept.expect("at least one set-up");
    let mut tally = Tally::default();

    // Never-seen modules: the workload's own cold set plus salted copies of
    // its units, in a seeded order.
    let mut texts: Vec<String> = build(&inputs.cold, &off)?
        .iter()
        .map(|u| u.module.to_string())
        .collect();
    for v in 0..plan.cold_variants {
        for (u, unit) in units.iter().enumerate() {
            let salt = 900_000_000 + (args.seed % 1_000) * 10_000 + v * 100 + u as u64;
            texts.push(
                serve::salted(&unit.module.to_string(), salt)
                    .ok_or("a unit has a function with no immediate to salt")?,
            );
        }
    }
    let mut rng = serve::Rng::new(args.seed);
    for i in (1..texts.len()).rev() {
        texts.swap(i, rng.below(i + 1));
    }
    let budget = seconds.mul_f64(1.0 - plan.sweep_share);
    let cold = ColdQueue {
        interval: budget / (texts.len() as u32 + 1),
        texts,
    };

    // 2. Allocation sweeps, then the simulator check.
    let sweeps = alloc::run_sweeps(&units, seconds.mul_f64(plan.sweep_share), MIN_REPS);
    tally.add(sweeps.tally);
    let sim = alloc::simulate(&units, &sweeps.first, &tracer, SIM_THREADS);
    tally.add(sim.tally);

    // 3. Serving, checked against the direct Briggs allocations.
    let briggs = STRATEGIES
        .iter()
        .position(|&(s, _)| s == Strategy::Briggs)
        .expect("briggs");
    let serve_config = optimist_serve::protocol::parse_config(None).map_err(|e| e.to_string())?;
    let set = ServeSet::new(&units, &sweeps.first[briggs], serve_config.clone());
    let Some(set) = set else {
        let _ = daemon.stop();
        return Err("the reference sweep failed to allocate a function".into());
    };
    tally.add(serve::check_prewarm(&set, &prewarm));
    let log = serve::run_phase(
        &daemon,
        &set,
        plan.cold_start,
        &cold,
        budget,
        args.seed,
        &tracer,
    );
    let stopped = daemon.stop();
    let log = log?;
    stopped?;
    tally.add(log.tally);
    tally.add(serve::check_cold(&cold, &log.cold_responses, &serve_config));

    let mut m = BTreeMap::new();
    if !args.trace {
        for (s, (_, tag)) in STRATEGIES.iter().enumerate() {
            m.insert(
                format!("alloc_s.{tag}"),
                median(&sweeps.seconds[s]).unwrap_or(0.0),
            );
            m.insert(format!("cycles.{tag}"), sim.cycles[s] as f64);
        }
        let warm =
            |p: f64| percentile(&log.warm_ms, p).ok_or("too few warm samples for the percentile");
        m.insert(
            "warm_ms.p50".into(),
            median(&log.warm_ms).ok_or("no warm samples")?,
        );
        m.insert("warm_ms.p99".into(), warm(99.0)?);
        m.insert(
            "cold_ms.p50".into(),
            median(&log.cold_ms).ok_or("no cold samples")?,
        );
        m.insert("rps".into(), log.loop_requests as f64 / log.loop_seconds);
        m.insert("setup_s".into(), median(&setup_s).expect("set-ups ran"));
        m.insert(
            "peak_rss_mb".into(),
            peak_rss_mb().ok_or("cannot read peak RSS")?,
        );
        return Ok(Run { metrics: m, tally });
    }

    // The traced run: pass-1 replay of every function, the store layer,
    // then the per-layer figures. The replay also runs untraced on each
    // side of the traced one; the gap is the tracing overhead.
    let (_, before) = clock.time(|| alloc::replay(&units, &sweeps.first, &off));
    let (replay, traced) = clock.time(|| alloc::replay(&units, &sweeps.first, &tracer));
    let (_, after) = clock.time(|| alloc::replay(&units, &sweeps.first, &off));
    tally.add(replay.tally);
    let (store_bytes, store_tally) =
        serve::store_layer(&set, &scratch.join("layer-store"), &tracer)?;
    tally.add(store_tally);
    let spans = tracer.spans();
    let totals = trace::totals(&spans);
    let ms = |name: &'static str, tag: &'static str| {
        totals.get(&(name, tag)).map_or(0.0, |t| t.0 as f64 / 1e6)
    };
    // Mean self time per call, in `unit` nanoseconds.
    let mean = |name: &'static str, unit: f64| {
        totals
            .get(&(name, ""))
            .map_or(0.0, |t| t.0 as f64 / unit / t.1.max(1) as f64)
    };

    m.insert("frontend.compile_ms".into(), ms("frontend.compile", ""));
    m.insert("opt.optimize_ms".into(), ms("opt.optimize", ""));
    m.insert(
        "ir.insts".into(),
        units
            .iter()
            .flat_map(|u| u.module.functions())
            .map(|f| f.num_insts() as f64)
            .sum(),
    );
    for (s, &(_, tag)) in STRATEGIES.iter().enumerate() {
        for (stem, layer) in [
            ("analysis.renumber_ms", "analysis.renumber"),
            ("analysis.cfg_ms", "analysis.cfg"),
            ("analysis.liveness_ms", "analysis.liveness"),
            ("analysis.loops_ms", "analysis.loops"),
            ("regalloc.coalesce_ms", "regalloc.coalesce"),
            ("regalloc.simplify_ms", "regalloc.simplify"),
            ("regalloc.irc_ms", "regalloc.irc"),
            ("regalloc.costs_ms", "regalloc.costs"),
            ("regalloc.select_ms", "regalloc.select"),
            ("regalloc.spill_ms", "regalloc.spill"),
            ("regalloc.graph_ms", "regalloc.graph"),
        ] {
            m.insert(format!("{stem}.{tag}"), ms(layer, tag));
        }
        let c = &replay.counts[s];
        m.insert(
            format!("analysis.renumber_calls.{tag}"),
            c.renumber_calls as f64,
        );
        m.insert(format!("regalloc.graph_nodes.{tag}"), c.graph_nodes as f64);
        m.insert(format!("regalloc.graph_edges.{tag}"), c.graph_edges as f64);
        let allocs: Vec<&optimist_regalloc::Allocation> =
            sweeps.first[s].iter().flatten().flatten().collect();
        let sum = |f: &dyn Fn(&optimist_regalloc::Allocation) -> f64| {
            allocs.iter().map(|a| f(a)).sum::<f64>()
        };
        m.insert(
            format!("regalloc.passes.{tag}"),
            sum(&|a| a.stats.passes as f64),
        );
        m.insert(
            format!("regalloc.spilled.{tag}"),
            sum(&|a| a.stats.registers_spilled as f64),
        );
        m.insert(
            format!("regalloc.spill_cost.{tag}"),
            sum(&|a| a.stats.spill_cost),
        );
        m.insert(
            format!("regalloc.coalesced.{tag}"),
            sum(&|a| a.stats.coalesced_copies as f64),
        );
        m.insert(
            format!("machine.code_bytes.{tag}"),
            sum(&|a| optimist_machine::size::function_size(&a.func) as f64),
        );
        let phase = |f: &dyn Fn(&optimist_regalloc::PhaseTimes) -> Duration| {
            sum(&|a| {
                a.passes
                    .iter()
                    .map(|p| f(&p.times).as_secs_f64() * 1e3)
                    .sum()
            })
        };
        m.insert(format!("regalloc.pass.build_ms.{tag}"), phase(&|t| t.build));
        m.insert(
            format!("regalloc.pass.simplify_ms.{tag}"),
            phase(&|t| t.simplify),
        );
        m.insert(format!("regalloc.pass.color_ms.{tag}"), phase(&|t| t.color));
        m.insert(format!("regalloc.pass.spill_ms.{tag}"), phase(&|t| t.spill));
        if tag == "ssa" {
            // The SSA spiller is private to the allocator: its time is the
            // allocator's own record, which also covers destruction.
            m.insert("regalloc.ssa.spill_ms".into(), phase(&|t| t.spill));
        }
    }
    m.insert(
        "regalloc.ssa.construct_ms".into(),
        ms("regalloc.ssa.construct", "ssa"),
    );
    m.insert(
        "regalloc.ssa.color_ms".into(),
        ms("regalloc.ssa.color", "ssa"),
    );
    m.insert(
        "regalloc.ssa.destruct_ms".into(),
        ms("regalloc.ssa.destruct", "ssa"),
    );
    m.insert("regalloc.replay_matched".into(), replay.matched as f64);
    m.insert("regalloc.replay_unchecked".into(), replay.unchecked as f64);
    m.insert(
        "sim.verify_ms".into(),
        ALL.iter().map(|t| ms("sim.verify", t)).sum(),
    );
    // Per request, so that a faster daemon, which fits more requests into
    // the serving budget, does not read as a costlier one.
    m.insert("serve.parse_ms".into(), mean("serve.parse", 1e6));
    m.insert("serve.canonical_ms".into(), mean("serve.canonical", 1e6));
    m.insert("serve.json_ms".into(), mean("serve.json", 1e6));
    let delta = |path: &[&str]| stat(&log.stats_after, path) - stat(&log.stats_before, path);
    let (hits, misses) = (delta(&["cache", "hits"]), delta(&["cache", "misses"]));
    let requests = log.sent.iter().sum::<u64>().max(1) as f64;
    let memo_hits = delta(&["cache", "memo_hits"]);
    m.insert("serve.memo_hits".into(), memo_hits / requests);
    m.insert("serve.cache_hits".into(), hits / requests);
    m.insert(
        "serve.store_hits".into(),
        delta(&["store", "hits"]) / requests,
    );
    m.insert("serve.misses".into(), misses / requests);
    m.insert(
        "serve.hit_ratio".into(),
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
    );
    m.insert("store.get_us".into(), mean("store.get", 1e3));
    m.insert("store.put_us".into(), mean("store.put", 1e3));
    m.insert("store.bytes".into(), store_bytes as f64);
    m.insert("failed_frac".into(), tally.failed_frac());
    m.insert(
        "trace.overhead_pct".into(),
        (traced / ((before + after) / 2.0) - 1.0) * 100.0,
    );
    let sent: Vec<String> = serve::KINDS
        .iter()
        .zip(log.sent)
        .map(|(kind, n)| format!("{n} {kind}"))
        .collect();
    eprintln!(
        "optbench: served {}; the text memo answered {memo_hits}",
        sent.join(", ")
    );

    let path = scratch_dir().join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
    trace::write_jsonl(&spans, &path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!(
        "optbench: {} spans written to {}",
        spans.len(),
        path.display()
    );
    Ok(Run { metrics: m, tally })
}

fn main() -> ExitCode {
    // The daemon's lifecycle notes would drown the benchmark's own lines.
    optimist_serve::log::set_level(optimist_serve::log::Level::Warn);
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("optbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("optbench: {e}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<(String, &str)> = if args.trace {
        per_layer_names()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let mut fields = Vec::new();
    for (name, unit) in &names {
        let value = run.metrics.get(name).copied().unwrap_or(f64::NAN);
        if !value.is_finite() {
            eprintln!("optbench: metric {name} was not measured");
            return ExitCode::from(2);
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    let correct = run.tally.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.tally.attempted,
        run.tally.failed,
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optimist_serve::Json;

    fn listed(b: &Json, key: &str) -> Vec<(String, String)> {
        b.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f| {
                    m.get(f)
                        .and_then(Json::as_str)
                        .expect("string field")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let b = optimist_serve::json::parse(&text).expect("BENCHMARK.json parses");
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.into(), u.into()))
            .collect();
        assert_eq!(listed(&b, "end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer_names()
            .into_iter()
            .map(|(n, u)| (n, u.into()))
            .collect();
        assert_eq!(listed(&b, "per_layer"), layers);
    }

    #[test]
    fn every_workload_has_inputs() {
        for w in ["corpus", "serve_mix"] {
            let i = inputs(w).expect("known workload");
            assert!(!i.units.is_empty());
        }
        assert!(inputs("nope").is_err());
    }
}
