//! The serving side: an in-process `optimist-serve` daemon backed by a
//! persistent store, a closed-loop client mix, and a check of every
//! returned function against a direct allocation of the same function.

use crate::alloc::{Sweep, Unit};
use crate::calib::{kernel_seconds, Calibrated, NOMINAL_S};
use crate::stats::{report_failure, Tally};
use crate::trace::Tracer;
use optimist_ir::{parse_module, Function};
use optimist_regalloc::{Allocation, AllocatorConfig};
use optimist_serve::json::parse as parse_json;
use optimist_serve::{cache_key, Client, ClientError, Json, Server};
use optimist_store::{Store, StoreOptions};
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Client connections in the closed loop, and worker threads in the
/// daemon's allocation pool.
pub const CLIENTS: usize = 2;
const POOL_THREADS: usize = 2;
/// Lock shards of the daemon's function cache and text memo. With one
/// shard a small memo is one LRU list: with several, each holds a few
/// entries, and the unique modules that regroups and cold requests insert
/// evict an exact repeat's entry from its shard long before its turn.
const CACHE_SHARDS: usize = 1;
/// Warm samples every run collects at least, so that ten lie beyond p99.
pub const MIN_WARM_SAMPLES: usize = 1000;
/// Length of one slice of the closed loop, between two calibrations.
const SLICE: Duration = Duration::from_millis(500);

/// An in-process daemon listening on a loopback port.
pub struct Daemon {
    addr: String,
    handle: std::thread::JoinHandle<()>,
    dir: PathBuf,
}

impl Daemon {
    /// Start a daemon whose store lives in `dir` (emptied first) and whose
    /// memory cache holds `cache_capacity` functions.
    pub fn start(dir: PathBuf, cache_capacity: usize) -> Result<Daemon, String> {
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::open(&dir, StoreOptions { max_bytes: 0 })
            .map_err(|e| format!("cannot open store {}: {e}", dir.display()))?;
        let server = Arc::new(
            Server::new(cache_capacity, CACHE_SHARDS)
                .with_store(store)
                .with_pool_threads(NonZeroUsize::new(POOL_THREADS).expect("nonzero")),
        );
        let (tx, rx) = mpsc::channel();
        let handle = std::thread::spawn(move || {
            if let Err(e) = server.run_listener("127.0.0.1:0", |bound| {
                let _ = tx.send(bound);
            }) {
                eprintln!("daemon listener failed: {e}");
            }
        });
        match rx.recv() {
            Ok(bound) => Ok(Daemon {
                addr: bound.to_string(),
                handle,
                dir,
            }),
            Err(_) => {
                let _ = handle.join();
                Err("daemon exited before binding a port".into())
            }
        }
    }

    pub fn connect(&self) -> Result<Client, String> {
        Client::connect(self.addr.as_str()).map_err(|e| format!("connect {}: {e}", self.addr))
    }

    /// Shut the daemon down, wait for its listener thread and remove its
    /// store.
    pub fn stop(self) -> Result<(), String> {
        let shutdown = self
            .connect()
            .and_then(|mut c| c.shutdown().map_err(|e| e.to_string()));
        let joined = self.handle.join();
        let _ = std::fs::remove_dir_all(&self.dir);
        shutdown?;
        joined.map_err(|_| "daemon listener panicked".to_string())
    }
}

/// The response of a request that the server completed and accepted;
/// `None` for a transport error or a refusal, which count as failed.
pub fn accepted(result: Result<Json, ClientError>) -> Option<Json> {
    result
        .ok()
        .filter(|r| r.get("ok").and_then(Json::as_bool) == Some(true))
}

/// What a correct daemon must answer for `func`: the fields of its direct
/// allocation that travel on the wire. Timing and `cached` are not part
/// of it.
pub fn expected(func: &Function, alloc: &Allocation, key: u64) -> Json {
    let strings = |v: Vec<String>| Json::Arr(v.into_iter().map(Json::from).collect());
    let spilled = (0..alloc.func.num_slots())
        .map(|i| alloc.func.slot(optimist_ir::FrameSlot::new(i as u32)))
        .filter(|s| s.is_spill)
        .map(|s| s.name.strip_prefix("spill.").unwrap_or(&s.name).to_string())
        .collect();
    let st = &alloc.stats;
    Json::obj([
        ("name", Json::from(func.name())),
        (
            "assignment",
            strings(alloc.assignment.iter().map(|r| r.to_string()).collect()),
        ),
        ("spilled", strings(spilled)),
        (
            "stats",
            Json::obj([
                ("live_ranges", Json::from(st.live_ranges)),
                ("registers_spilled", Json::from(st.registers_spilled)),
                ("spill_cost", Json::from(st.spill_cost)),
                ("passes", Json::from(st.passes)),
                ("coalesced_copies", Json::from(st.coalesced_copies)),
                ("incremental_passes", Json::from(st.incremental_passes)),
            ]),
        ),
        ("key", Json::from(format!("{key:016x}"))),
    ])
}

/// Does `got` (one entry of a response's `functions`) carry every field of
/// `want` with the same value?
pub fn matches(got: &Json, want: &Json) -> bool {
    let Json::Obj(fields) = want else {
        return false;
    };
    fields.iter().all(|(k, v)| got.get(k) == Some(v))
}

/// Does an accepted response's `functions` array match `want`, in order?
fn functions_match(resp: &Json, want: &[&Json]) -> bool {
    match resp.get("functions").and_then(Json::as_arr) {
        Some(got) => got.len() == want.len() && got.iter().zip(want).all(|(g, w)| matches(g, w)),
        None => false,
    }
}

/// One function the daemon serves warm.
pub struct ServeFn {
    pub text: String,
    pub key: u64,
    pub expected: Json,
}

/// A module as the workload first sends it: its globals and functions.
pub struct Group {
    pub globals: String,
    pub fns: Vec<usize>,
}

/// The warm working set: every function of the workload's units, with
/// the direct Briggs allocation the daemon's answers must equal.
pub struct ServeSet {
    pub fns: Vec<ServeFn>,
    pub groups: Vec<Group>,
    pub config: AllocatorConfig,
}

impl ServeSet {
    pub fn new(units: &[Unit], reference: &Sweep, config: AllocatorConfig) -> Option<ServeSet> {
        let mut set = ServeSet {
            fns: Vec::new(),
            groups: Vec::new(),
            config,
        };
        for (u, unit) in units.iter().enumerate() {
            let globals: String = unit
                .module
                .globals()
                .iter()
                .map(|g| format!("global {} [{} bytes]\n", g.name, g.size))
                .collect();
            let mut fns = Vec::new();
            for (f, a) in unit.module.functions().iter().zip(&reference[u]) {
                let key = cache_key(f, &set.config);
                fns.push(set.fns.len());
                set.fns.push(ServeFn {
                    text: f.to_string(),
                    key,
                    expected: expected(f, a.as_ref()?, key),
                });
            }
            set.groups.push(Group { globals, fns });
        }
        Some(set)
    }

    /// Module text holding `picks` (functions of group `g`) in that order.
    pub fn module_text(&self, g: usize, picks: &[usize]) -> String {
        // The layout of the module's own `Display`, so that the first send
        // of a whole group and every exact repeat are the same bytes.
        let mut text = self.groups[g].globals.clone();
        for (i, &f) in picks.iter().enumerate() {
            if i > 0 || !text.is_empty() {
                text.push('\n');
            }
            text.push_str(&self.fns[f].text);
            text.push('\n');
        }
        text
    }
}

/// A small seeded generator (SplitMix64): the request stream depends on
/// the seed and nothing else.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The request kinds of the mix.
enum Req {
    /// A warm module resent byte for byte: answered by the text memo while
    /// its entry lasts, by the cache or the store after.
    Exact(usize),
    /// Warm functions of one module regrouped into a new module: the memo
    /// misses (the module also declares a global named after the request,
    /// so no two regroups are the same text), each function is a cache or
    /// store hit.
    Regroup(usize, Vec<usize>),
    /// A batch fetch of warm results by content address.
    Keys(Vec<usize>),
    /// A module never sent before: computed, cached and stored.
    Cold(usize),
}

/// The warm mix, in percent of the closed loop's draws; key batches take
/// the rest. No traffic has been recorded for the daemon, so the shares
/// are assumptions, with their reasons in `optbench/README.md`.
const EXACT_PCT: usize = 45;
const REGROUP_PCT: usize = 35;
/// Most functions a regroup carries: a generated-routine module's size.
const MAX_REGROUP: usize = 4;
/// Results a key batch fetches: as many as the largest regroup.
const KEYS_PER_BATCH: usize = MAX_REGROUP;

/// The request kinds, in the order of [`ServeLog::sent`].
pub const KINDS: [&str; 4] = [
    "exact repeat",
    "regrouped module",
    "key batch",
    "cold module",
];

impl Req {
    fn kind(&self) -> usize {
        match self {
            Req::Exact(_) => 0,
            Req::Regroup(..) => 1,
            Req::Keys(_) => 2,
            Req::Cold(_) => 3,
        }
    }
}

fn draw(set: &ServeSet, rng: &mut Rng) -> Req {
    let roll = rng.below(100);
    let g = rng.below(set.groups.len());
    let group = &set.groups[g].fns;
    let warm_modules = EXACT_PCT + REGROUP_PCT;
    if roll < EXACT_PCT || (roll < warm_modules && group.len() < 2) {
        return Req::Exact(g);
    }
    if roll < warm_modules {
        let mut pool = group.clone();
        let take = 1 + rng.below(pool.len().min(MAX_REGROUP));
        let mut picks = Vec::with_capacity(take);
        for _ in 0..take {
            picks.push(pool.swap_remove(rng.below(pool.len())));
        }
        return Req::Regroup(g, picks);
    }
    Req::Keys(
        (0..KEYS_PER_BATCH)
            .map(|_| rng.below(set.fns.len()))
            .collect(),
    )
}

/// Never-seen modules, and the interval at which the closed loop releases
/// them.
pub struct ColdQueue {
    pub texts: Vec<String>,
    pub interval: Duration,
}

/// Latencies and outcomes of one serving phase, timed in normalised
/// milliseconds and seconds (see the `calib` module).
#[derive(Default)]
pub struct ServeLog {
    pub warm_ms: Vec<f64>,
    pub cold_ms: Vec<f64>,
    /// Requests sent between the two `stats` snapshots, per kind (see
    /// [`KINDS`]).
    pub sent: [u64; 4],
    /// Requests completed inside the closed loop, and its time.
    pub loop_requests: u64,
    pub loop_seconds: f64,
    pub tally: Tally,
    /// Cold responses, checked once the reference is computed.
    pub cold_responses: Vec<(usize, Option<Json>)>,
    pub stats_before: Option<Json>,
    pub stats_after: Option<Json>,
}

/// Send one request, timing only the round trip. With tracing on, the
/// benchmark then repeats the daemon's request-side layers on the same
/// bytes — JSON encode and decode, IR parse, canonical text plus cache key
/// — each under its own span.
fn send(
    client: &mut Client,
    set: &ServeSet,
    req: &Req,
    cold: &ColdQueue,
    tracer: &Tracer,
    id: u64,
) -> (f64, bool, Json) {
    let expected_of =
        |fns: &[usize]| -> Vec<&Json> { fns.iter().map(|&f| &set.fns[f].expected).collect() };
    let (ir, want) = match req {
        Req::Exact(g) => (
            Some(set.module_text(*g, &set.groups[*g].fns)),
            expected_of(&set.groups[*g].fns),
        ),
        Req::Regroup(g, picks) => (
            Some(format!(
                "global regroup.{id} [8 bytes]\n{}",
                set.module_text(*g, picks)
            )),
            expected_of(picks),
        ),
        Req::Cold(c) => (Some(cold.texts[*c].clone()), Vec::new()),
        Req::Keys(fns) => (None, expected_of(fns)),
    };
    tracer.span("serve.request", "", id, None, |parent| {
        let (request, started, ok, resp) = match &ir {
            None => {
                let items: Vec<(Json, Json)> = want
                    .iter()
                    .enumerate()
                    .map(|(i, w)| {
                        (
                            Json::from(i),
                            Json::obj([(
                                "key",
                                w.get("key").expect("expected carries its key").clone(),
                            )]),
                        )
                    })
                    .collect();
                let request = Json::obj([
                    ("req", Json::from("batch")),
                    (
                        "items",
                        Json::Arr(
                            items
                                .iter()
                                .map(|(i, k)| {
                                    let mut item = k.clone();
                                    item.push("id", i.clone());
                                    item
                                })
                                .collect(),
                        ),
                    ),
                ]);
                let mut records: Vec<Json> = Vec::new();
                let started = Instant::now();
                let done = client.batch(&items, Json::Null, |r| records.push(r.clone()));
                let ok = accepted(done).is_some()
                    && records.len() == want.len()
                    && records.iter().all(|r| {
                        let w = r
                            .get("id")
                            .and_then(Json::as_u64)
                            .and_then(|i| want.get(i as usize));
                        match (accepted(Ok(r.clone())), w) {
                            (Some(r), Some(w)) => functions_match(&r, &[*w]),
                            _ => false,
                        }
                    });
                (request, started, ok, Json::Arr(records))
            }
            Some(ir) => {
                let request = Json::obj([
                    ("req", Json::from("alloc")),
                    ("ir", Json::from(ir.as_str())),
                ]);
                let started = Instant::now();
                let resp = accepted(client.request(&request));
                let ok = match (&resp, req) {
                    (Some(_), Req::Cold(_)) => true,
                    (Some(r), _) => functions_match(r, &want),
                    (None, _) => false,
                };
                (request, started, ok, resp.unwrap_or(Json::Null))
            }
        };
        let ms = started.elapsed().as_secs_f64() * 1e3;
        if !ok {
            report_failure(KINDS[req.kind()], &resp.to_string());
        }

        if tracer.enabled() {
            tracer.span("serve.json", "", id, parent, |_| {
                let _ = parse_json(&request.to_string());
                let _ = parse_json(&resp.to_string());
            });
            if let Some(ir) = &ir {
                let module = tracer.span("serve.parse", "", id, parent, |_| parse_module(ir).ok());
                if let Some(m) = module {
                    tracer.span("serve.canonical", "", id, parent, |_| {
                        m.functions()
                            .iter()
                            .map(|f| cache_key(f, &set.config))
                            .fold(0, u64::wrapping_add)
                    });
                }
            }
        }
        (ms, ok, resp)
    })
}

fn stats(client: &mut Client) -> Option<Json> {
    client.stats().ok()
}

/// The timed serving phase. With `cold_first` (the compile workloads'
/// cold-then-warm replay), every group and then every `cold` module is
/// sent once, one at a time, before the closed loop; otherwise the loop
/// releases the `cold` modules at their fixed rate, beside the warm
/// traffic. The closed loop runs [`CLIENTS`] connections for `budget` and
/// until it holds [`MIN_WARM_SAMPLES`] warm answers; calibrations between
/// its slices do not count towards `budget`.
pub fn run_phase(
    daemon: &Daemon,
    set: &ServeSet,
    cold_first: bool,
    cold: &ColdQueue,
    budget: Duration,
    seed: u64,
    tracer: &Tracer,
) -> Result<ServeLog, String> {
    let mut log = ServeLog::default();
    let mut first = daemon.connect()?;
    log.stats_before = stats(&mut first);
    // Cold modules already sent, or claimed by a client of the loop.
    let next_cold = AtomicUsize::new(cold.texts.len());
    if cold_first {
        let mut clock = Calibrated::new();
        let reqs = (0..set.groups.len())
            .map(Req::Exact)
            .chain((0..cold.texts.len()).map(Req::Cold));
        for (id, req) in reqs.enumerate() {
            let (ms, ok, resp) = send(&mut first, set, &req, cold, tracer, id as u64);
            log.sent[req.kind()] += 1;
            if ok {
                log.cold_ms.push(clock.scale(ms));
            }
            match req {
                Req::Cold(k) => log.cold_responses.push((k, ok.then_some(resp))),
                _ => log.tally.record(ok),
            }
        }
    } else {
        next_cold.store(0, Ordering::Relaxed);
    }

    // The closed loop runs in slices. Between two slices every client has
    // its answer and the daemon is idle, so the calibration kernel times
    // the host's speed undisturbed; each slice's figures are normalised by
    // the calibrations on each side of it.
    let mut clients = Vec::with_capacity(CLIENTS);
    for c in 0..CLIENTS {
        let rng = Rng::new(seed ^ (c as u64 + 1).wrapping_mul(0x9E37_79B9));
        clients.push((daemon.connect()?, rng, 0u64));
    }
    // A run that cannot collect its warm samples (every request failing
    // slowly, say) still ends; its missing percentile fails the run.
    let hard_stop = budget * 4 + Duration::from_secs(10);
    let mut elapsed = Duration::ZERO;
    let mut speed = kernel_seconds();
    while (elapsed < budget || log.warm_ms.len() < MIN_WARM_SAMPLES) && elapsed < hard_stop {
        let started = Instant::now();
        let end = elapsed + SLICE;
        let next_cold = &next_cold;
        let logs: Vec<Result<ServeLog, String>> = std::thread::scope(|s| {
            let workers: Vec<_> = clients
                .iter_mut()
                .enumerate()
                .map(|(c, (client, rng, n))| {
                    s.spawn(move || {
                        let mut mine = ServeLog::default();
                        loop {
                            let t = elapsed + started.elapsed();
                            if t >= end {
                                return mine;
                            }
                            let k = next_cold.load(Ordering::Relaxed);
                            let due = k < cold.texts.len() && t >= cold.interval * (k as u32 + 1);
                            let req = if due
                                && next_cold
                                    .compare_exchange(
                                        k,
                                        k + 1,
                                        Ordering::Relaxed,
                                        Ordering::Relaxed,
                                    )
                                    .is_ok()
                            {
                                Req::Cold(k)
                            } else {
                                draw(set, rng)
                            };
                            *n += 1;
                            let rid = ((c as u64 + 1) << 40) | *n;
                            let (ms, ok, resp) = send(client, set, &req, cold, tracer, rid);
                            mine.loop_requests += 1;
                            mine.sent[req.kind()] += 1;
                            match &req {
                                Req::Cold(k) => {
                                    if ok {
                                        mine.cold_ms.push(ms);
                                    }
                                    mine.cold_responses.push((*k, ok.then_some(resp)));
                                }
                                _ => {
                                    mine.tally.record(ok);
                                    if ok {
                                        mine.warm_ms.push(ms);
                                    }
                                }
                            }
                        }
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().map_err(|_| "client thread panicked".to_string()))
                .collect()
        });
        let wall = started.elapsed();
        elapsed += wall;
        let after = kernel_seconds();
        let scale = NOMINAL_S / ((speed + after) / 2.0);
        speed = after;
        log.loop_seconds += wall.as_secs_f64() * scale;
        for l in logs {
            let l = l?;
            log.warm_ms.extend(l.warm_ms.iter().map(|ms| ms * scale));
            log.cold_ms.extend(l.cold_ms.iter().map(|ms| ms * scale));
            log.loop_requests += l.loop_requests;
            for (all, mine) in log.sent.iter_mut().zip(l.sent) {
                *all += mine;
            }
            log.tally.add(l.tally);
            log.cold_responses.extend(l.cold_responses);
        }
    }
    log.stats_after = stats(&mut first);
    Ok(log)
}

/// Check the pre-warm answers of a daemon's set-up against the reference.
pub fn check_prewarm(set: &ServeSet, responses: &[Option<Json>]) -> Tally {
    let mut tally = Tally::default();
    for (g, resp) in responses.iter().enumerate() {
        let want: Vec<&Json> = set.groups[g]
            .fns
            .iter()
            .map(|&f| &set.fns[f].expected)
            .collect();
        let ok = resp.as_ref().is_some_and(|r| functions_match(r, &want));
        if !ok {
            report_failure("pre-warm answer", &format!("{resp:?}"));
        }
        tally.record(ok);
    }
    tally
}

/// Send every group once, in order: the daemon computes and stores the
/// warm set. Returns the responses for the later check.
pub fn prewarm(daemon: &Daemon, units: &[Unit]) -> Result<Vec<Option<Json>>, String> {
    let mut client = daemon.connect()?;
    Ok(units
        .iter()
        .map(|u| accepted(client.alloc(&u.module.to_string(), Json::Null)))
        .collect())
}

/// Check each cold response against a direct allocation of the module the
/// request carried.
pub fn check_cold(
    cold: &ColdQueue,
    responses: &[(usize, Option<Json>)],
    config: &AllocatorConfig,
) -> Tally {
    let mut tally = Tally::default();
    for (k, resp) in responses {
        let want: Option<Vec<Json>> = parse_module(&cold.texts[*k]).ok().and_then(|m| {
            m.functions()
                .iter()
                .map(|f| {
                    let a = optimist_regalloc::allocate(f, config).ok()?;
                    Some(expected(f, &a, cache_key(f, config)))
                })
                .collect()
        });
        let ok = match (resp, &want) {
            (Some(r), Some(w)) => functions_match(r, &w.iter().collect::<Vec<_>>()),
            _ => false,
        };
        if !ok {
            report_failure("cold module answer", &format!("{resp:?} vs {want:?}"));
        }
        tally.record(ok);
    }
    tally
}

/// `text` (a module) with the first immediate of every function replaced
/// by `salt` (as `salt.5` for a float): new content, so new cache keys, for
/// the same allocation work — immediate values enter neither interference,
/// nor spill costs, nor coalescing. `None` if some function has no
/// immediate to replace.
pub fn salted(text: &str, salt: u64) -> Option<String> {
    let mut out = String::with_capacity(text.len() + 32 * 16);
    let (mut funcs, mut replaced, mut pending) = (0, 0, false);
    for line in text.lines() {
        if line.starts_with("func ") {
            funcs += 1;
            pending = true;
        }
        let new_value = match line.rsplit_once(" = imm ") {
            Some((_, v)) if pending && v.parse::<i64>().is_ok() => Some(salt.to_string()),
            Some((_, v)) if pending && v.parse::<f64>().is_ok() => Some(format!("{salt}.5")),
            _ => None,
        };
        match (new_value, line.rsplit_once(" = imm ")) {
            (Some(value), Some((head, _))) => {
                out.push_str(head);
                out.push_str(" = imm ");
                out.push_str(&value);
                pending = false;
                replaced += 1;
            }
            _ => out.push_str(line),
        }
        out.push('\n');
    }
    (funcs > 0 && replaced == funcs).then_some(out)
}

/// Time `Store::put` then `Store::get` on the workload's own keys and
/// payloads (the reference results as the store tier encodes them), in a
/// store of its own under `dir`. Returns the payload bytes written; each
/// read must return what was written.
pub fn store_layer(set: &ServeSet, dir: &Path, tracer: &Tracer) -> Result<(u64, Tally), String> {
    let _ = std::fs::remove_dir_all(dir);
    let store = Store::open(dir, StoreOptions { max_bytes: 0 })
        .map_err(|e| format!("cannot open store {}: {e}", dir.display()))?;
    let fp = set.config.fingerprint();
    let mut bytes = 0u64;
    let mut tally = Tally::default();
    for (i, f) in set.fns.iter().enumerate() {
        let payload = f.expected.to_string().into_bytes();
        bytes += payload.len() as u64;
        let put = tracer.span("store.put", "", i as u64, None, |_| {
            store.put(f.key, fp, &payload)
        });
        tally.record(put.is_ok());
    }
    for (i, f) in set.fns.iter().enumerate() {
        let got = tracer.span("store.get", "", i as u64, None, |_| store.get(f.key));
        tally.record(
            got.is_some_and(|(gfp, p)| gfp == fp && p == f.expected.to_string().into_bytes()),
        );
    }
    drop(store);
    let _ = std::fs::remove_dir_all(dir);
    Ok((bytes, tally))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errored_or_refused_requests_count_as_failed() {
        let mut t = Tally::default();
        let outcomes = [
            Ok(Json::obj([("ok", Json::from(true))])),
            Ok(Json::obj([
                ("ok", Json::from(false)),
                ("error", Json::from("bad IR")),
            ])),
            Err(ClientError::Refused("bad IR".into())),
            Err(ClientError::Overloaded {
                retry_after_ms: Some(5),
            }),
            Err(ClientError::Io(std::io::Error::other("reset"))),
            Ok(Json::obj([("functions", Json::Arr(Vec::new()))])),
        ];
        for r in outcomes {
            t.record(accepted(r).is_some());
        }
        assert_eq!(
            t,
            Tally {
                attempted: 6,
                failed: 5
            }
        );
        assert_eq!(t.failed_frac(), 5.0 / 6.0);
    }

    #[test]
    fn salting_changes_every_function_and_nothing_else() {
        let text = "global G [8 bytes]\n\nfunc F(v0:int) -> int {\n    reg v0:int \"N\"\n    reg v1:int \"c\"\nb0:\n    v1 = imm 7\n    v1 = imm 9\n    ret v1\n}\n\nfunc H() -> float {\n    reg v0:float \"x\"\n    reg v1:int \"k\"\nb0:\n    v0 = imm 0.5\n    v1 = imm -3\n    ret v0\n}\n";
        let s = salted(text, 4242).expect("both functions carry an immediate");
        assert!(s.contains("v1 = imm 4242") && s.contains("v0 = imm 4242.5"));
        assert!(s.contains("v1 = imm 9") && s.contains("v1 = imm -3"));
        assert_eq!(s.lines().count(), text.lines().count());
        let first = parse_module(text).expect("parses");
        let again = parse_module(&s).expect("salted text parses");
        assert_eq!(first.functions().len(), again.functions().len());
        assert!(salted("func F() {\nb0:\n    ret\n}\n", 1).is_none());
    }

    #[test]
    fn a_match_ignores_cached_and_timing_but_no_result_field() {
        let want = Json::obj([
            ("name", Json::from("F")),
            ("assignment", Json::Arr(vec![Json::from("r3")])),
        ]);
        let mut got = want.clone();
        got.push("cached", Json::from(true));
        got.push("latency_us", Json::from(17u64));
        assert!(matches(&got, &want));
        got.set("assignment", Json::Arr(vec![Json::from("r4")]));
        assert!(!matches(&got, &want));
    }
}
