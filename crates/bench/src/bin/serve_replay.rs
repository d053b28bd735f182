//! Replay the workloads suite against an `optimist-serve` daemon, cold
//! then warm, over real TCP — the serving layer's end-to-end benchmark.
//!
//! ```text
//! serve_replay [--rounds N] [--addr ADDR]
//! serve_replay --restart [--store DIR] [--store-max-bytes N]
//! serve_replay --stream [--rounds N]
//! serve_replay --chaos [--rounds N]
//! serve_replay --shootout
//! serve_replay --fleet [--rounds N]
//! ```
//!
//! Without `--addr` a daemon is spun up in-process on a loopback port.
//! The first round populates the content-addressed cache; every later
//! round should be answered from it. Prints a per-round latency table and
//! the server's final `stats` dump as JSON on stdout.
//!
//! With `--restart` the benchmark measures *persistence*: a cold run
//! against a store-backed daemon, a full daemon shutdown, then a replay
//! against a brand-new daemon on the same store. The replay must be
//! served ≥ 90% from disk; the run fails otherwise. `--store DIR`
//! defaults to a scratch directory that is cleaned up afterwards.
//!
//! With `--stream` the benchmark compares the two warm-cache transports:
//! the whole corpus as serial request/response round trips versus one
//! streaming `batch` request per round. It reports throughput for both,
//! the completion-order skew of the streamed item records (how far
//! arrival order drifts from submission order), and fails unless the
//! stream mode is ≥ 1.3× the serial throughput with byte-identical
//! `functions` payloads.
//!
//! With `--chaos` the benchmark is a fault-injection drill: a store-backed
//! daemon is populated, restarted with every store read and write armed to
//! fail (the `put`/`get` failpoints — the same machinery
//! `OPTIMIST_FAILPOINTS=put:enospc,get:fail` arms from the environment),
//! and replayed by a retrying client. The run fails unless **zero**
//! requests fail end to end, the daemon trips into memory-only degraded
//! mode, and — once the failpoints are cleared — the periodic probe puts
//! the store back in the serving path. Per-phase hit rates show what
//! degraded mode costs.
//!
//! With `--fleet` the benchmark stands up a whole fleet in-process: two
//! networked `optimist-stored` store daemons and three serving daemons
//! sharing them over consistent-hash routing, each serving daemon
//! fronted by both the NDJSON listener and the HTTP/1.1 front-end.
//! Daemon 0 computes the corpus and writes through the ring; every
//! other daemon starts memory-cold and must answer ≥ 90% of its
//! functions from the shared store tier, byte-identical to the
//! single-process path, with a p99 tail-latency bar on the cross-daemon
//! warm path. One store peer is then killed under traffic — zero
//! requests may fail while its tripwire trips — and revived on the same
//! port; the drill fails unless the probe puts the peer back in the
//! serving path.
//!
//! With `--shootout` the benchmark races the four allocator strategies
//! (plus conservative-coalescing Briggs as a fifth lane) over the whole
//! corpus through the wire protocol: each lane sends its own
//! `{"strategy": ...}` config, the per-function wire stats are summed,
//! and the allocated code is re-run locally under the simulator for a
//! cycle count with the usual self-checks. Fails unless IRC removes at
//! least as many copies as conservative-mode Briggs without spilling
//! more, and unless the SSA lane allocates every function in exactly
//! one pass.

use optimist_serve::{run_http, Client, Json, RetryPolicy, Server};
use optimist_store::failpoint::FailKind;
use optimist_store::net::{StoreClient as StoreNetClient, StoreServer};
use optimist_store::{Store, StoreOptions};
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

struct Args {
    rounds: usize,
    addr: Option<String>,
    restart: bool,
    stream: bool,
    chaos: bool,
    shootout: bool,
    fleet: bool,
    store: Option<PathBuf>,
    store_max_bytes: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        rounds: 3,
        addr: None,
        restart: false,
        stream: false,
        chaos: false,
        shootout: false,
        fleet: false,
        store: None,
        store_max_bytes: 64 << 20,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--rounds" => {
                let v = it.next().ok_or("--rounds needs a value")?;
                args.rounds = v.parse().map_err(|_| format!("bad --rounds `{v}`"))?;
            }
            "--addr" => args.addr = Some(it.next().ok_or("--addr needs a value")?),
            "--restart" => args.restart = true,
            "--stream" => args.stream = true,
            "--chaos" => args.chaos = true,
            "--shootout" => args.shootout = true,
            "--fleet" => args.fleet = true,
            "--store" => args.store = Some(it.next().ok_or("--store needs a value")?.into()),
            "--store-max-bytes" => {
                let v = it.next().ok_or("--store-max-bytes needs a value")?;
                args.store_max_bytes = v
                    .parse()
                    .map_err(|_| format!("bad --store-max-bytes `{v}`"))?;
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: serve_replay [--rounds N] [--addr ADDR]\n       \
                     serve_replay --restart [--store DIR] [--store-max-bytes N]\n       \
                     serve_replay --stream [--rounds N]\n       \
                     serve_replay --chaos [--rounds N]\n       \
                     serve_replay --shootout\n       \
                     serve_replay --fleet [--rounds N]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    if args.restart && args.addr.is_some() {
        return Err("--restart restarts an in-process daemon; drop --addr".into());
    }
    if args.stream && args.restart {
        return Err("--stream and --restart are separate benchmarks; pick one".into());
    }
    if args.stream && args.addr.is_some() {
        return Err("--stream compares transports on an in-process daemon; drop --addr".into());
    }
    if args.chaos && (args.addr.is_some() || args.restart || args.stream) {
        return Err("--chaos injects faults into its own in-process daemon; run it alone".into());
    }
    if args.shootout && (args.addr.is_some() || args.restart || args.stream || args.chaos) {
        return Err(
            "--shootout compares strategies on its own in-process daemon; run it alone".into(),
        );
    }
    if args.fleet
        && (args.addr.is_some() || args.restart || args.stream || args.chaos || args.shootout)
    {
        return Err("--fleet orchestrates its own in-process fleet; run it alone".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("serve_replay: {e}");
            ExitCode::FAILURE
        }
    }
}

fn real_main() -> Result<(), String> {
    let args = parse_args()?;

    if args.shootout {
        return run_shootout();
    }

    // Compile the whole suite up front; the daemon only sees IR text.
    let corpus: Vec<(String, String)> = optimist::workloads::programs()
        .iter()
        .map(|p| {
            let module =
                optimist::frontend::compile(&p.source).map_err(|e| format!("{}: {e}", p.name))?;
            Ok((p.name.to_string(), module.to_string()))
        })
        .collect::<Result<_, String>>()?;

    if args.restart {
        return run_restart(&corpus, &args);
    }
    if args.stream {
        return run_stream_bench(&corpus, &args);
    }
    if args.chaos {
        return run_chaos(&corpus, &args);
    }
    if args.fleet {
        return run_fleet(&corpus, &args);
    }

    // Either attach to a running daemon or start one on a loopback port.
    let (addr, local) = match args.addr {
        Some(addr) => (addr, None),
        None => {
            let (addr, server, handle) = spawn_plain_daemon()?;
            (addr, Some((server, handle)))
        }
    };

    let mut client = Client::connect(addr.as_str()).map_err(|e| e.to_string())?;
    println!("replaying {} programs against {addr}", corpus.len());
    println!(
        "{:<8} {:>12} {:>10} {:>10}",
        "round", "latency_us", "hits", "misses"
    );

    let mut last_hits = 0;
    let mut last_misses = 0;
    for round in 0..args.rounds.max(1) {
        let started = Instant::now();
        for (name, ir) in &corpus {
            let resp = client
                .alloc(ir, Json::Null)
                .map_err(|e| format!("{name}: {e}"))?;
            let ok = resp.get("ok").and_then(Json::as_bool) == Some(true);
            if !ok {
                return Err(format!("{name}: server refused: {resp}"));
            }
        }
        let elapsed = started.elapsed().as_micros();

        let stats = client.stats().map_err(|e| e.to_string())?;
        let counter = |path: [&str; 2]| {
            stats
                .get(path[0])
                .and_then(|c| c.get(path[1]))
                .and_then(Json::as_u64)
                .unwrap_or(0)
        };
        let hits = counter(["cache", "hits"]);
        let misses = counter(["cache", "misses"]);
        println!(
            "{:<8} {:>12} {:>10} {:>10}",
            if round == 0 {
                "cold".to_string()
            } else {
                format!("warm {round}")
            },
            elapsed,
            hits - last_hits,
            misses - last_misses,
        );
        last_hits = hits;
        last_misses = misses;
    }

    let stats = client.stats().map_err(|e| e.to_string())?;
    println!("{stats}");

    if let Some((_, handle)) = local {
        client.shutdown().map_err(|e| e.to_string())?;
        handle
            .join()
            .map_err(|_| "daemon thread panicked".to_string())?;
    }
    Ok(())
}

/// Spin up a store-less in-process daemon on a loopback port.
fn spawn_plain_daemon() -> Result<(String, Arc<Server>, std::thread::JoinHandle<()>), String> {
    let server = Arc::new(Server::new(4096, 16));
    let (tx, rx) = mpsc::channel();
    let s = Arc::clone(&server);
    let handle = std::thread::spawn(move || {
        s.run_listener("127.0.0.1:0", |bound| {
            let _ = tx.send(bound);
        })
        .expect("listener failed");
    });
    let bound = rx
        .recv()
        .map_err(|_| "daemon thread died before binding".to_string())?;
    Ok((bound.to_string(), server, handle))
}

/// Spin up an in-process daemon backed by `dir`, returning a connected
/// client and the listener thread.
fn spawn_store_daemon(
    dir: &Path,
    max_bytes: u64,
) -> Result<(Client, Arc<Server>, std::thread::JoinHandle<()>), String> {
    let store = Store::open(dir, StoreOptions { max_bytes })
        .map_err(|e| format!("cannot open store {}: {e}", dir.display()))?;
    let server = Arc::new(Server::new(4096, 16).with_store(store));
    let (tx, rx) = mpsc::channel();
    let s = Arc::clone(&server);
    let handle = std::thread::spawn(move || {
        s.run_listener("127.0.0.1:0", |bound| {
            let _ = tx.send(bound);
        })
        .expect("listener failed");
    });
    let bound = rx
        .recv()
        .map_err(|_| "daemon thread died before binding".to_string())?;
    let client = Client::connect(bound.to_string().as_str()).map_err(|e| e.to_string())?;
    Ok((client, server, handle))
}

/// Push the whole corpus through `client` once, returning the elapsed
/// microseconds.
fn replay_once(client: &mut Client, corpus: &[(String, String)]) -> Result<u128, String> {
    let started = Instant::now();
    for (name, ir) in corpus {
        let resp = client
            .alloc(ir, Json::Null)
            .map_err(|e| format!("{name}: {e}"))?;
        if resp.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(format!("{name}: server refused: {resp}"));
        }
    }
    Ok(started.elapsed().as_micros())
}

/// The `--restart` benchmark: cold run, daemon restart, disk-warm replay.
fn run_restart(corpus: &[(String, String)], args: &Args) -> Result<(), String> {
    // Default to a scratch store we clean up; a user-supplied one is kept.
    let (dir, scratch) = match &args.store {
        Some(dir) => (dir.clone(), false),
        None => {
            let dir =
                std::env::temp_dir().join(format!("serve-replay-store-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            (dir, true)
        }
    };

    println!(
        "restart benchmark: {} programs, store at {}",
        corpus.len(),
        dir.display()
    );

    // Phase 1 — cold: every function computed and written through.
    let (mut client, _server, handle) = spawn_store_daemon(&dir, args.store_max_bytes)?;
    let cold_us = replay_once(&mut client, corpus)?;
    let cold_stats = client.stats().map_err(|e| e.to_string())?;
    client.shutdown().map_err(|e| e.to_string())?;
    handle
        .join()
        .map_err(|_| "daemon thread panicked".to_string())?;

    // Phase 2 — restart: a brand-new daemon, empty memory, same store.
    let (mut client, server, handle) = spawn_store_daemon(&dir, args.store_max_bytes)?;
    let recovered = server.store().map(|s| s.snapshot().recovered_entries);
    let replay_us = replay_once(&mut client, corpus)?;

    let stats = client.stats().map_err(|e| e.to_string())?;
    let counter = |a: &str, b: &str| {
        stats
            .get(a)
            .and_then(|c| c.get(b))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    let hits = counter("cache", "hits");
    let misses = counter("cache", "misses");
    let store_hits = counter("store", "hits");
    let cold_counter = |a: &str, b: &str| {
        cold_stats
            .get(a)
            .and_then(|c| c.get(b))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    let hit_rate = if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    };
    let speedup = cold_us as f64 / replay_us.max(1) as f64;

    println!(
        "{:<22} {:>12} {:>10} {:>10} {:>12}",
        "phase", "latency_us", "hits", "misses", "store_hits"
    );
    println!(
        "{:<22} {cold_us:>12} {:>10} {:>10} {:>12}",
        "cold",
        cold_counter("cache", "hits"),
        cold_counter("cache", "misses"),
        cold_counter("store", "hits"),
    );
    println!(
        "{:<22} {replay_us:>12} {hits:>10} {misses:>10} {store_hits:>12}",
        "warm-after-restart"
    );
    println!(
        "recovered {} entries; hit rate {hit_rate:.3}; speedup {speedup:.1}x over cold",
        recovered.unwrap_or(0)
    );
    println!("{stats}");

    client.shutdown().map_err(|e| e.to_string())?;
    handle
        .join()
        .map_err(|_| "daemon thread panicked".to_string())?;
    if scratch {
        let _ = std::fs::remove_dir_all(&dir);
    }

    if hit_rate < 0.9 {
        return Err(format!(
            "warm-after-restart hit rate {hit_rate:.3} is below the 0.9 acceptance bar"
        ));
    }
    Ok(())
}

/// The `--stream` benchmark: warm the cache once, then push the corpus
/// through three warm transports — serial request/response, one streamed
/// `ir` batch per round, and one streamed `key`-reference batch per round
/// (the batch protocol's warm fast path: the first response taught the
/// client every function's content address). Reports throughput for each,
/// the completion-order skew of the streamed records, and fails unless
/// the key-reference stream is ≥ 1.3× serial with byte-identical records.
fn run_stream_bench(corpus: &[(String, String)], args: &Args) -> Result<(), String> {
    let rounds = args.rounds.max(1);
    let (addr, _server, handle) = spawn_plain_daemon()?;
    let mut client = Client::connect(addr.as_str()).map_err(|e| e.to_string())?;

    println!(
        "stream benchmark: {} programs × {rounds} rounds against {addr}",
        corpus.len()
    );

    // Warm: every measured transport must run against the same fully
    // populated cache, or the first mode measured would pay the compute.
    // The responses teach us each function's content address.
    let mut keys: Vec<(String, String)> = Vec::new(); // (program/index, key)
    for (name, ir) in corpus {
        let resp = client
            .alloc(ir, Json::Null)
            .map_err(|e| format!("{name}: {e}"))?;
        let funcs = resp
            .get("functions")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("{name}: response without functions"))?;
        for (i, f) in funcs.iter().enumerate() {
            let key = f
                .get("key")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{name}: function record without key"))?;
            keys.push((format!("{name}/{i}"), key.to_string()));
        }
    }

    // Serial: one request/response round trip per program; the client
    // waits for each answer before sending the next request. Capture the
    // payloads as the byte-identity baseline: the whole `functions` array
    // per program, and each function record individually.
    let mut serial_arrays: BTreeMap<String, String> = BTreeMap::new();
    let mut serial_records: BTreeMap<String, String> = BTreeMap::new(); // "prog/i"
    let serial_started = Instant::now();
    for _ in 0..rounds {
        for (name, ir) in corpus {
            let resp = client
                .alloc(ir, Json::Null)
                .map_err(|e| format!("{name}: {e}"))?;
            let funcs = resp
                .get("functions")
                .ok_or_else(|| format!("{name}: response without functions"))?;
            serial_arrays.insert(name.clone(), funcs.to_string());
            if let Some(arr) = funcs.as_arr() {
                for (i, f) in arr.iter().enumerate() {
                    serial_records.insert(format!("{name}/{i}"), f.to_string());
                }
            }
        }
    }
    let serial_us = serial_started.elapsed().as_micros();

    // Stream, ir payloads: the whole corpus as ONE batch request per
    // round; item records come back in completion order, tagged with the
    // program name.
    let ir_items: Vec<(Json, Json)> = corpus
        .iter()
        .map(|(name, ir)| {
            (
                Json::from(name.as_str()),
                Json::obj([("ir", Json::from(ir.as_str()))]),
            )
        })
        .collect();
    let mut arrivals: Vec<String> = Vec::new();
    let stream_started = Instant::now();
    for _ in 0..rounds {
        arrivals.clear();
        let mut streamed: BTreeMap<String, String> = BTreeMap::new();
        let done = client
            .batch(&ir_items, Json::Null, |record| {
                let id = record
                    .get("id")
                    .and_then(Json::as_str)
                    .unwrap_or("?")
                    .to_string();
                if let Some(funcs) = record.get("functions") {
                    streamed.insert(id.clone(), funcs.to_string());
                }
                arrivals.push(id);
            })
            .map_err(|e| e.to_string())?;
        let errors = done.get("errors").and_then(Json::as_u64).unwrap_or(0);
        if errors != 0 {
            return Err(format!(
                "ir batch round finished with {errors} failed items"
            ));
        }
        // Byte-identity, every round: the transport must not change the
        // result, whatever order the items completed in.
        for (name, serial_funcs) in &serial_arrays {
            match streamed.get(name) {
                Some(s) if s == serial_funcs => {}
                Some(_) => return Err(format!("{name}: streamed payload differs from serial")),
                None => return Err(format!("{name}: no streamed item record")),
            }
        }
    }
    let stream_us = stream_started.elapsed().as_micros();

    // Stream, key references: one batch per round re-fetching every
    // function by the content address learned during the warm pass. The
    // server answers without seeing (or parsing) any module text — this
    // is the protocol's warm fast path.
    let key_items: Vec<(Json, Json)> = keys
        .iter()
        .map(|(id, key)| {
            (
                Json::from(id.as_str()),
                Json::obj([("key", Json::from(key.as_str()))]),
            )
        })
        .collect();
    let keys_started = Instant::now();
    for _ in 0..rounds {
        let mut streamed: BTreeMap<String, String> = BTreeMap::new();
        let done = client
            .batch(&key_items, Json::Null, |record| {
                let id = record
                    .get("id")
                    .and_then(Json::as_str)
                    .unwrap_or("?")
                    .to_string();
                if let Some([f]) = record.get("functions").and_then(Json::as_arr) {
                    streamed.insert(id, f.to_string());
                }
            })
            .map_err(|e| e.to_string())?;
        let errors = done.get("errors").and_then(Json::as_u64).unwrap_or(0);
        if errors != 0 {
            return Err(format!(
                "key batch round finished with {errors} failed items"
            ));
        }
        for (id, serial_record) in &serial_records {
            match streamed.get(id) {
                Some(s) if s == serial_record => {}
                Some(_) => return Err(format!("{id}: key-fetched record differs from serial")),
                None => return Err(format!("{id}: no key-fetched record")),
            }
        }
    }
    let keys_us = keys_started.elapsed().as_micros();

    // Completion-order skew of the last ir round: how far each item
    // record's arrival position drifted from its submission position.
    let submitted: BTreeMap<&str, usize> = corpus
        .iter()
        .enumerate()
        .map(|(i, (name, _))| (name.as_str(), i))
        .collect();
    let mut displaced = 0usize;
    let mut max_displacement = 0usize;
    for (arrival_pos, id) in arrivals.iter().enumerate() {
        let Some(&submit_pos) = submitted.get(id.as_str()) else {
            continue;
        };
        let drift = arrival_pos.abs_diff(submit_pos);
        if drift > 0 {
            displaced += 1;
            max_displacement = max_displacement.max(drift);
        }
    }

    let ir_speedup = serial_us as f64 / stream_us.max(1) as f64;
    let key_speedup = serial_us as f64 / keys_us.max(1) as f64;
    println!(
        "{:<12} {:>12} {:>16} {:>9}",
        "mode", "latency_us", "items_per_sec", "speedup"
    );
    let rate = |n: usize, us: u128| (n * rounds) as f64 / (us.max(1) as f64 / 1e6);
    println!(
        "{:<12} {serial_us:>12} {:>16.0} {:>9}",
        "serial",
        rate(corpus.len(), serial_us),
        "1.00x"
    );
    println!(
        "{:<12} {stream_us:>12} {:>16.0} {ir_speedup:>8.2}x",
        "stream-ir",
        rate(corpus.len(), stream_us),
    );
    println!(
        "{:<12} {keys_us:>12} {:>16.0} {key_speedup:>8.2}x",
        "stream-keys",
        rate(keys.len(), keys_us),
    );
    println!(
        "completion-order skew (ir batch): {displaced}/{} items displaced, \
         max displacement {max_displacement}",
        corpus.len()
    );

    let stats = client.stats().map_err(|e| e.to_string())?;
    println!("{stats}");
    client.shutdown().map_err(|e| e.to_string())?;
    handle
        .join()
        .map_err(|_| "daemon thread panicked".to_string())?;

    if key_speedup < 1.3 {
        return Err(format!(
            "key-reference stream speedup {key_speedup:.2}x is below the 1.3x acceptance bar"
        ));
    }
    Ok(())
}

/// The `--chaos` drill: populate a store, restart the daemon with every
/// store read and write armed to fail, replay through a retrying client,
/// then heal the failpoints and watch the probe restore the tier. Fails
/// unless zero requests fail end to end, the daemon degrades, and it
/// recovers.
fn run_chaos(corpus: &[(String, String)], args: &Args) -> Result<(), String> {
    let rounds = args.rounds.max(1);
    let dir = std::env::temp_dir().join(format!("serve-replay-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    println!(
        "chaos drill: {} programs × {rounds} rounds, store at {}",
        corpus.len(),
        dir.display()
    );

    // Phase 1 — populate: a healthy store-backed daemon computes the
    // whole corpus and writes it through to disk.
    let (mut client, _server, handle) = spawn_store_daemon(&dir, args.store_max_bytes)?;
    let populate_us = replay_once(&mut client, corpus)?;
    client.shutdown().map_err(|e| e.to_string())?;
    handle
        .join()
        .map_err(|_| "daemon thread panicked".to_string())?;

    // Phase 2 — chaos: a fresh daemon on the same store (cold memory, so
    // the replay actually reads disk) with every `get` failing outright
    // and every `put` failing with ENOSPC — what
    // `OPTIMIST_FAILPOINTS=get:fail,put:enospc` would arm from the
    // environment. The client retries shed responses; degraded mode must
    // keep every request succeeding from the memory tier.
    let probe_interval = Duration::from_millis(50);
    let store = Store::open(
        &dir,
        StoreOptions {
            max_bytes: args.store_max_bytes,
        },
    )
    .map_err(|e| format!("cannot reopen store {}: {e}", dir.display()))?;
    store.failpoints().arm("get", FailKind::Fail);
    store.failpoints().arm("put", FailKind::Enospc);
    let server = Arc::new(
        Server::new(4096, 16)
            .with_store(store)
            .with_store_probe_interval(probe_interval),
    );
    let (tx, rx) = mpsc::channel();
    let s = Arc::clone(&server);
    let handle = std::thread::spawn(move || {
        s.run_listener("127.0.0.1:0", |bound| {
            let _ = tx.send(bound);
        })
        .expect("listener failed");
    });
    let bound = rx
        .recv()
        .map_err(|_| "daemon thread died before binding".to_string())?;
    let mut client = Client::connect(bound.to_string().as_str())
        .map_err(|e| e.to_string())?
        .with_retry(RetryPolicy::standard());

    let mut chaos_us = 0u128;
    for _ in 0..rounds {
        // `replay_once` errors on any failed request — the zero-failures
        // acceptance bar is enforced by construction.
        chaos_us += replay_once(&mut client, corpus)?;
    }
    let chaos_state = client
        .health()
        .map_err(|e| e.to_string())?
        .get("state")
        .and_then(Json::as_str)
        .unwrap_or("?")
        .to_string();
    let chaos_stats = client.stats().map_err(|e| e.to_string())?;

    // Phase 3 — heal: clear the failpoints and wait out the probe
    // interval; the next store access probes and restores the tier.
    server
        .store()
        .ok_or("chaos daemon has no store")?
        .failpoints()
        .clear_all();
    std::thread::sleep(probe_interval + Duration::from_millis(30));
    let heal_us = replay_once(&mut client, corpus)?;
    let heal_state = client
        .health()
        .map_err(|e| e.to_string())?
        .get("state")
        .and_then(Json::as_str)
        .unwrap_or("?")
        .to_string();
    let stats = client.stats().map_err(|e| e.to_string())?;

    let counter = |stats: &Json, a: &str, b: &str| {
        stats
            .get(a)
            .and_then(|c| c.get(b))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    let chaos_hits = counter(&chaos_stats, "cache", "hits");
    let chaos_misses = counter(&chaos_stats, "cache", "misses");
    let chaos_hit_rate = if chaos_hits + chaos_misses == 0 {
        0.0
    } else {
        chaos_hits as f64 / (chaos_hits + chaos_misses) as f64
    };

    println!(
        "{:<12} {:>12} {:>10} {:>12} {:>12} {:>10}",
        "phase", "latency_us", "hit_rate", "get_errors", "put_errors", "state"
    );
    println!(
        "{:<12} {populate_us:>12} {:>10} {:>12} {:>12} {:>10}",
        "populate", "-", 0, 0, "ok"
    );
    println!(
        "{:<12} {chaos_us:>12} {chaos_hit_rate:>10.3} {:>12} {:>12} {chaos_state:>10}",
        "degraded",
        counter(&chaos_stats, "store_health", "get_errors"),
        counter(&chaos_stats, "store_health", "put_errors"),
    );
    println!(
        "{:<12} {heal_us:>12} {:>10} {:>12} {:>12} {heal_state:>10}",
        "recovered",
        "-",
        counter(&stats, "store_health", "get_errors"),
        counter(&stats, "store_health", "put_errors"),
    );
    println!(
        "probes {}  recoveries {}  failed requests 0 (enforced per round)",
        counter(&stats, "store_health", "probes"),
        counter(&stats, "store_health", "recoveries"),
    );
    println!("{stats}");

    client.shutdown().map_err(|e| e.to_string())?;
    handle
        .join()
        .map_err(|_| "daemon thread panicked".to_string())?;
    let _ = std::fs::remove_dir_all(&dir);

    if chaos_state != "degraded" {
        return Err(format!(
            "daemon never tripped into degraded mode (state stayed `{chaos_state}`)"
        ));
    }
    if heal_state != "ok" {
        return Err(format!(
            "daemon did not recover after the failpoints cleared (state `{heal_state}`)"
        ));
    }
    if counter(&stats, "store_health", "recoveries") < 1 {
        return Err("no recovery probe succeeded".to_string());
    }
    Ok(())
}

/// One in-process `optimist-stored` daemon on a loopback port.
struct FleetStore {
    server: Arc<StoreServer>,
    addr: SocketAddr,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl FleetStore {
    /// Spawn on `addr` (the revive-in-place case) or an ephemeral port.
    fn spawn(dir: &Path, addr: Option<SocketAddr>) -> Result<FleetStore, String> {
        let store = Store::open(dir, StoreOptions::default())
            .map_err(|e| format!("cannot open store {}: {e}", dir.display()))?;
        let server = Arc::new(StoreServer::new(store).with_drain_timeout(Duration::from_secs(5)));
        let bind: SocketAddr = addr.unwrap_or_else(|| "127.0.0.1:0".parse().unwrap());
        let listener =
            TcpListener::bind(bind).map_err(|e| format!("store daemon cannot bind {bind}: {e}"))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let thread = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || server.run_listener(listener).expect("store daemon failed"))
        };
        Ok(FleetStore {
            server,
            addr,
            thread: Some(thread),
        })
    }

    /// Stop the daemon, keeping its port free for a successor.
    fn kill(mut self) -> Result<SocketAddr, String> {
        self.server.request_shutdown();
        if let Some(t) = self.thread.take() {
            t.join().map_err(|_| "store daemon panicked".to_string())?;
        }
        Ok(self.addr)
    }
}

impl Drop for FleetStore {
    fn drop(&mut self) {
        self.server.request_shutdown();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// One serving daemon in the fleet: a sharded remote store tier behind
/// both the NDJSON listener and the HTTP/1.1 front-end.
struct FleetServe {
    addr: String,
    http_addr: SocketAddr,
    nd_thread: std::thread::JoinHandle<()>,
    http_thread: std::thread::JoinHandle<()>,
}

impl FleetServe {
    fn spawn(peers: &[String], probe_interval: Duration) -> Result<FleetServe, String> {
        let server = Arc::new(
            Server::new(4096, 16)
                .with_remote_store(peers)
                .with_replicas(2)
                .with_store_probe_interval(probe_interval),
        );
        let (tx, rx) = mpsc::channel();
        let s = Arc::clone(&server);
        let nd_thread = std::thread::spawn(move || {
            s.run_listener("127.0.0.1:0", |bound| {
                let _ = tx.send(bound);
            })
            .expect("fleet listener failed");
        });
        let addr = rx
            .recv()
            .map_err(|_| "fleet daemon died before binding".to_string())?
            .to_string();
        let (htx, hrx) = mpsc::channel();
        let s = Arc::clone(&server);
        let http_thread = std::thread::spawn(move || {
            run_http(&s, "127.0.0.1:0", |bound| {
                let _ = htx.send(bound);
            })
            .expect("fleet http listener failed");
        });
        let http_addr = hrx
            .recv()
            .map_err(|_| "fleet http front-end died before binding".to_string())?;
        Ok(FleetServe {
            addr,
            http_addr,
            nd_thread,
            http_thread,
        })
    }

    /// Drain the daemon over the wire; both listeners watch the same
    /// stop flag, so one shutdown request stops NDJSON and HTTP alike.
    fn shutdown(self) -> Result<(), String> {
        let mut client = Client::connect(self.addr.as_str()).map_err(|e| e.to_string())?;
        client.shutdown().map_err(|e| e.to_string())?;
        self.nd_thread
            .join()
            .map_err(|_| "fleet daemon panicked".to_string())?;
        self.http_thread
            .join()
            .map_err(|_| "fleet http front-end panicked".to_string())?;
        Ok(())
    }
}

/// One measured corpus replay: per-request latencies, each program's
/// `functions` payload (the byte-identity evidence), and the total
/// function count.
type ReplaySample = (Vec<u128>, BTreeMap<String, String>, u64);

/// Push the corpus through `client` once, collecting per-request
/// latencies and each program's `functions` payload for the
/// byte-identity check.
fn replay_collect(
    client: &mut Client,
    corpus: &[(String, String)],
) -> Result<ReplaySample, String> {
    let mut latencies = Vec::with_capacity(corpus.len());
    let mut arrays = BTreeMap::new();
    let mut functions = 0u64;
    for (name, ir) in corpus {
        let started = Instant::now();
        let resp = client
            .alloc(ir, Json::Null)
            .map_err(|e| format!("{name}: {e}"))?;
        latencies.push(started.elapsed().as_micros());
        if resp.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(format!("{name}: server refused: {resp}"));
        }
        let funcs = resp
            .get("functions")
            .ok_or_else(|| format!("{name}: response without functions"))?;
        functions += funcs.as_arr().map(|a| a.len() as u64).unwrap_or(0);
        arrays.insert(name.clone(), funcs.to_string());
    }
    Ok((latencies, arrays, functions))
}

/// A one-shot HTTP request against a fleet daemon's front-end; returns
/// the status code and body.
fn http_get(addr: SocketAddr, path: &str) -> Result<(u16, String), String> {
    use std::io::{Read, Write};
    let mut conn = std::net::TcpStream::connect(addr).map_err(|e| e.to_string())?;
    conn.write_all(
        format!("GET {path} HTTP/1.1\r\nHost: fleet\r\nConnection: close\r\n\r\n").as_bytes(),
    )
    .map_err(|e| e.to_string())?;
    let mut text = String::new();
    conn.read_to_string(&mut text).map_err(|e| e.to_string())?;
    let status: u16 = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed http response: {text:.60}"))?;
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

fn percentile(sorted: &[u128], p: f64) -> u128 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// The `--fleet` drill: N serving daemons sharing M networked store
/// daemons over consistent-hash routing with 2 replicas per key. Fails
/// unless every cold daemon warms ≥ 90% cross-daemon from the store tier
/// with byte-identical results and bounded tail latency; unless a store
/// peer killed mid-replay costs zero requests with the warm-hit bar
/// still met via replica reads; and unless reviving that peer *empty*
/// triggers an anti-entropy resync that restores ≥ 90% of its keys
/// before a final byte-identical warm pass.
fn run_fleet(corpus: &[(String, String)], args: &Args) -> Result<(), String> {
    const STORE_PEERS: usize = 3;
    const SERVE_DAEMONS: usize = 3;
    const WARM_HIT_BAR: f64 = 0.9;
    const RESYNC_BAR: f64 = 0.9;
    const TAIL_BAR_US: u128 = 250_000;
    let rounds = args.rounds.max(1);
    let probe_interval = Duration::from_millis(50);

    println!(
        "fleet drill: {} programs, {SERVE_DAEMONS} serve daemons sharing {STORE_PEERS} store peers",
        corpus.len()
    );

    // Baseline — the single-process path the fleet must match byte for
    // byte. The warm (second) replay is the reference: store-warm fleet
    // records carry `cached:true` exactly like memory-warm ones.
    let (addr, _baseline_server, baseline_handle) = spawn_plain_daemon()?;
    let mut client = Client::connect(addr.as_str()).map_err(|e| e.to_string())?;
    replay_once(&mut client, corpus)?;
    let (_, baseline, total_functions) = replay_collect(&mut client, corpus)?;
    client.shutdown().map_err(|e| e.to_string())?;
    baseline_handle
        .join()
        .map_err(|_| "baseline daemon panicked".to_string())?;

    // The store tier: M `optimist-stored` daemons on loopback ports.
    let fleet_dir = std::env::temp_dir().join(format!("serve-replay-fleet-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&fleet_dir);
    let mut store_daemons: Vec<FleetStore> = (0..STORE_PEERS)
        .map(|i| FleetStore::spawn(&fleet_dir.join(format!("shard{i}")), None))
        .collect::<Result<_, _>>()?;
    let peers: Vec<String> = store_daemons.iter().map(|d| d.addr.to_string()).collect();

    // The serving tier: N sharded daemons over the same ring.
    let serves: Vec<FleetServe> = (0..SERVE_DAEMONS)
        .map(|_| FleetServe::spawn(&peers, probe_interval))
        .collect::<Result<_, _>>()?;

    println!(
        "{:<16} {:>12} {:>14} {:>9} {:>9} {:>10}",
        "phase", "latency_us", "store_hit_rate", "p50_us", "p99_us", "state"
    );

    // Phase 1 — populate: daemon 0 computes the corpus and writes it
    // through the consistent-hash ring.
    let mut client = Client::connect(serves[0].addr.as_str()).map_err(|e| e.to_string())?;
    let populate_us = replay_once(&mut client, corpus)?;
    drop(client);
    for (i, daemon) in store_daemons.iter().enumerate() {
        let len = daemon.server.store().len();
        if len == 0 {
            return Err(format!(
                "store peer {i} holds no records after populate — ring not routing"
            ));
        }
    }
    println!(
        "{:<16} {populate_us:>12} {:>14} {:>9} {:>9} {:>10}",
        "populate", "-", "-", "-", "ok"
    );

    // Phase 2 — cross-daemon warm: every other daemon has cold memory;
    // its only warmth is the shared store tier. Byte-identity and the
    // ≥ 90% bar are checked per daemon; latencies feed the tail bar.
    let mut warm_latencies: Vec<u128> = Vec::new();
    for (d, serve) in serves.iter().enumerate().skip(1) {
        let mut client = Client::connect(serve.addr.as_str()).map_err(|e| e.to_string())?;
        let (latencies, arrays, _) = replay_collect(&mut client, corpus)?;
        let warm_us: u128 = latencies.iter().sum();
        for (name, reference) in &baseline {
            match arrays.get(name) {
                Some(a) if a == reference => {}
                Some(_) => {
                    return Err(format!(
                        "{name}: daemon {d} answered differently from the single-process path"
                    ))
                }
                None => return Err(format!("{name}: daemon {d} returned no functions")),
            }
        }
        let stats = client.stats().map_err(|e| e.to_string())?;
        let store_hits = stats
            .get("store")
            .and_then(|s| s.get("hits"))
            .and_then(Json::as_u64)
            .unwrap_or(0);
        let hit_rate = store_hits as f64 / total_functions.max(1) as f64;
        // Extra rounds are memo-warm; they only prove the daemon keeps
        // answering, so they stay out of the cross-daemon tail sample.
        for _ in 1..rounds {
            replay_once(&mut client, corpus)?;
        }
        let mut sorted = latencies.clone();
        sorted.sort_unstable();
        println!(
            "{:<16} {warm_us:>12} {hit_rate:>14.3} {:>9} {:>9} {:>10}",
            format!("warm daemon-{d}"),
            percentile(&sorted, 0.5),
            percentile(&sorted, 0.99),
            "ok"
        );
        if hit_rate < WARM_HIT_BAR {
            return Err(format!(
                "daemon {d} warmed only {hit_rate:.3} of its functions from the store tier, \
                 below the {WARM_HIT_BAR} acceptance bar"
            ));
        }
        warm_latencies.extend(latencies);
    }
    warm_latencies.sort_unstable();
    let p99 = percentile(&warm_latencies, 0.99);

    // Every daemon's HTTP front-end must agree it is serving the
    // sharded tier.
    for (d, serve) in serves.iter().enumerate() {
        let (status, body) = http_get(serve.http_addr, "/v1/health")?;
        if status != 200 || !body.contains(r#""mode":"sharded""#) {
            return Err(format!(
                "daemon {d} http health answered {status}: {body:.120}"
            ));
        }
    }
    println!("http: {SERVE_DAEMONS}/{SERVE_DAEMONS} front-ends report a sharded store tier");

    // Phase 3 — peer death MID-replay: start pushing the corpus through
    // a fresh memory-cold daemon, kill a store daemon a third of the way
    // in, and finish the replay. Zero requests may fail, every response
    // must stay byte-identical to the single-process path, and the
    // warm-hit bar must still be met: every key the dead peer owned has
    // a live replica down its chain.
    let owner_keys = store_daemons[0]
        .server
        .store()
        .scan_keys(None, usize::MAX)
        .0;
    let fresh = FleetServe::spawn(&peers, probe_interval)?;
    let mut client = Client::connect(fresh.addr.as_str()).map_err(|e| e.to_string())?;
    let split = (corpus.len() / 3).max(1).min(corpus.len() - 1);
    let (mut death_latencies, mut death_arrays, _) = replay_collect(&mut client, &corpus[..split])?;
    // The kill lands here: the first third of the replay saw three live
    // peers, the rest runs against two.
    let dead_addr = store_daemons.remove(0).kill()?;
    let (rest_latencies, rest_arrays, _) = replay_collect(&mut client, &corpus[split..])?;
    death_latencies.extend(rest_latencies);
    death_arrays.extend(rest_arrays);
    for (name, reference) in &baseline {
        match death_arrays.get(name) {
            Some(a) if a == reference => {}
            Some(_) => {
                return Err(format!(
                    "{name}: the mid-replay peer kill changed the answer \
                     from the single-process path"
                ))
            }
            None => return Err(format!("{name}: lost during the mid-replay peer kill")),
        }
    }
    let death_us: u128 = death_latencies.iter().sum();
    let stats = client.stats().map_err(|e| e.to_string())?;
    let death_hits = stats
        .get("store")
        .and_then(|s| s.get("hits"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    let failovers = stats
        .get("replication")
        .and_then(|r| r.get("failovers"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    let death_hit_rate = death_hits as f64 / total_functions.max(1) as f64;
    let state = |client: &mut Client| -> Result<String, String> {
        Ok(client
            .health()
            .map_err(|e| e.to_string())?
            .get("state")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string())
    };
    let death_state = state(&mut client)?;
    println!(
        "{:<16} {death_us:>12} {death_hit_rate:>14.3} {:>9} {:>9} {death_state:>10}",
        "peer-death", "-", "-",
    );
    if death_state != "degraded" {
        return Err(format!(
            "the dead store peer never tripped its tripwire (state `{death_state}`)"
        ));
    }
    if death_hit_rate < WARM_HIT_BAR {
        return Err(format!(
            "the mid-replay kill dropped the warm hit rate to {death_hit_rate:.3}, below \
             {WARM_HIT_BAR} — replica reads are not covering the dead peer's share"
        ));
    }
    if failovers == 0 {
        return Err("no failover hit was recorded — the replica chain never engaged".to_string());
    }

    // Revive the peer on the same port with an EMPTY store — the
    // disk-loss case. The health poll probes it back into the serving
    // path, and the anti-entropy sweep behind the probe repopulates it
    // from the live replicas before `state` reports ok.
    store_daemons.push(FleetStore::spawn(
        &fleet_dir.join("shard0-revived"),
        Some(dead_addr),
    )?);
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        std::thread::sleep(Duration::from_millis(60));
        let s = state(&mut client)?;
        if s == "ok" {
            break;
        }
        if Instant::now() >= deadline {
            return Err(format!(
                "the revived store peer never recovered (state `{s}`)"
            ));
        }
    }
    // The resync bar, measured over the wire with the store protocol's
    // own paginated `scan`: the revived daemon must hold ≥ 90% of the
    // keys its predecessor held before the kill.
    let mut revived_keys = std::collections::BTreeSet::new();
    {
        let mut scanner =
            StoreNetClient::connect(dead_addr).map_err(|e| format!("resync scan: {e}"))?;
        let mut cursor = None;
        loop {
            let page = scanner
                .scan(cursor, None)
                .map_err(|e| format!("resync scan: {e}"))?;
            cursor = page.keys.last().copied();
            revived_keys.extend(page.keys);
            if page.done {
                break;
            }
        }
    }
    let restored = owner_keys
        .iter()
        .filter(|k| revived_keys.contains(k))
        .count();
    let resync_rate = restored as f64 / owner_keys.len().max(1) as f64;
    if resync_rate < RESYNC_BAR {
        return Err(format!(
            "anti-entropy restored only {restored}/{} of the dead peer's keys \
             ({resync_rate:.3}), below the {RESYNC_BAR} bar",
            owner_keys.len()
        ));
    }

    // Final pass — a brand-new memory-cold daemon over the healed fleet:
    // byte-identical and warm, proving the revived peer is a full
    // replica again.
    let heal_us = replay_once(&mut client, corpus)?;
    let health = client.health().map_err(|e| e.to_string())?;
    let recoveries = health
        .get("store_recoveries")
        .and_then(Json::as_u64)
        .unwrap_or(0);
    let last = FleetServe::spawn(&peers, probe_interval)?;
    let mut last_client = Client::connect(last.addr.as_str()).map_err(|e| e.to_string())?;
    let (_, final_arrays, _) = replay_collect(&mut last_client, corpus)?;
    for (name, reference) in &baseline {
        if final_arrays.get(name) != Some(reference) {
            return Err(format!(
                "{name}: the healed fleet answered differently from the single-process path"
            ));
        }
    }
    let stats = last_client.stats().map_err(|e| e.to_string())?;
    let final_hits = stats
        .get("store")
        .and_then(|s| s.get("hits"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    let final_rate = final_hits as f64 / total_functions.max(1) as f64;
    if final_rate < WARM_HIT_BAR {
        return Err(format!(
            "the healed fleet warmed only {final_rate:.3} of the corpus, below {WARM_HIT_BAR}"
        ));
    }
    drop(last_client);
    last.shutdown()?;
    println!(
        "{:<16} {heal_us:>12} {final_rate:>14.3} {:>9} {:>9} {:>10}",
        "recovered", "-", "-", "ok"
    );
    println!(
        "cross-daemon warm p50 {}us  p99 {p99}us  recoveries {recoveries}  \
         failovers {failovers}  resync {restored}/{} keys  \
         failed requests 0 (enforced per replay)",
        percentile(&warm_latencies, 0.5),
        owner_keys.len()
    );
    let stats = client.stats().map_err(|e| e.to_string())?;
    println!("{stats}");
    drop(client);

    // Tear the fleet down: drain every serving daemon over the wire,
    // then let the store daemons drop.
    fresh.shutdown()?;
    for serve in serves {
        serve.shutdown()?;
    }
    drop(store_daemons);
    let _ = std::fs::remove_dir_all(&fleet_dir);

    if recoveries < 1 {
        return Err("no recovery probe succeeded".to_string());
    }
    if p99 > TAIL_BAR_US {
        return Err(format!(
            "cross-daemon warm p99 {p99}us is above the {TAIL_BAR_US}us acceptance bar"
        ));
    }
    Ok(())
}

/// The `--shootout` benchmark: every strategy the wire protocol can
/// select, raced over the whole corpus. Wire stats (spills, copies
/// removed, passes) are summed from the daemon's per-function records;
/// cycles come from re-running the allocated code locally under the
/// simulator, self-checked the same way the paper figures are.
fn run_shootout() -> Result<(), String> {
    use optimist_machine::Target;
    use optimist_regalloc::{allocate, AllocatorConfig, CoalesceMode, Strategy};
    use optimist_sim::{run_allocated, run_virtual, AllocatedModule, ExecOptions, Scalar};
    use optimist_workloads::DriverArg;
    use std::collections::HashMap;

    let target = Target::rt_pc();

    // Compile (and optimize) each program once; the daemon sees the same
    // module text that the local cycle runs execute. The virtual-machine
    // run (no allocation, infinite registers) pins the expected result
    // every lane's allocated code must reproduce.
    struct Subject {
        name: String,
        ir: String,
        module: optimist::ir::Module,
        driver: &'static str,
        run_args: Vec<Scalar>,
        expected_ret: Option<Scalar>,
    }
    let subjects: Vec<Subject> = optimist::workloads::programs()
        .iter()
        .map(|p| {
            let module =
                optimist::compile_optimized(&p.source).map_err(|e| format!("{}: {e}", p.name))?;
            let run_args: Vec<Scalar> = p
                .smoke_args
                .iter()
                .map(|a| match a {
                    DriverArg::Int(v) => Scalar::Int(*v),
                    DriverArg::Float(v) => Scalar::Float(*v),
                })
                .collect();
            let reference = run_virtual(&module, p.driver, &run_args, &ExecOptions::default())
                .map_err(|e| format!("{}: virtual run failed: {e}", p.name))?;
            Ok(Subject {
                name: p.name.to_string(),
                ir: module.to_string(),
                module,
                driver: p.driver,
                run_args,
                expected_ret: reference.ret,
            })
        })
        .collect::<Result<_, String>>()?;

    // The five lanes. Each pairs the wire config the daemon is sent with
    // the equivalent local config used for the simulator runs — the
    // daemon and the simulator must be allocating with the same knobs or
    // the cycle column would describe different code than the spill
    // column.
    let lanes: [(&str, Json, AllocatorConfig); 5] = [
        (
            "chaitin",
            Json::obj([("strategy", Json::from("chaitin"))]),
            AllocatorConfig::new(target.clone(), Strategy::Chaitin),
        ),
        (
            "briggs",
            Json::obj([("strategy", Json::from("briggs"))]),
            AllocatorConfig::new(target.clone(), Strategy::Briggs),
        ),
        (
            "briggs-cons",
            Json::obj([
                ("strategy", Json::from("briggs")),
                ("coalesce", Json::from("conservative")),
            ]),
            AllocatorConfig::new(target.clone(), Strategy::Briggs)
                .with_coalesce(CoalesceMode::Conservative),
        ),
        (
            "irc",
            Json::obj([("strategy", Json::from("irc"))]),
            AllocatorConfig::new(target.clone(), Strategy::Irc),
        ),
        (
            "ssa",
            Json::obj([("strategy", Json::from("ssa"))]),
            AllocatorConfig::new(target.clone(), Strategy::Ssa),
        ),
    ];

    let (addr, _server, handle) = spawn_plain_daemon()?;
    let mut client = Client::connect(addr.as_str()).map_err(|e| e.to_string())?;
    println!(
        "strategy shootout: {} programs against {addr}",
        subjects.len()
    );
    println!(
        "{:<12} {:>7} {:>15} {:>7} {:>14}",
        "strategy", "spills", "copies_removed", "passes", "cycles"
    );

    let mut table: Vec<(&str, usize, usize, usize, u64)> = Vec::new();
    for (label, wire_config, local_config) in &lanes {
        let mut spills = 0usize;
        let mut copies = 0usize;
        let mut passes = 0usize;
        let mut cycles = 0u64;
        for subject in &subjects {
            // Wire leg: the daemon allocates under this lane's strategy
            // and reports per-function stats.
            let resp = client
                .alloc(&subject.ir, wire_config.clone())
                .map_err(|e| format!("{label}/{}: {e}", subject.name))?;
            if resp.get("ok").and_then(Json::as_bool) != Some(true) {
                return Err(format!("{label}/{}: server refused: {resp}", subject.name));
            }
            let funcs = resp
                .get("functions")
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("{label}/{}: response without functions", subject.name))?;
            for f in funcs {
                let stat = |key: &str| {
                    f.get("stats")
                        .and_then(|s| s.get(key))
                        .and_then(Json::as_u64)
                        .unwrap_or(0) as usize
                };
                spills += stat("registers_spilled");
                copies += stat("coalesced_copies");
                passes += stat("passes");
            }

            // Cycles leg: rebuild the same allocation locally and run
            // the program under the simulator with its smoke inputs.
            let allocs: HashMap<_, _> = subject
                .module
                .functions()
                .iter()
                .map(|f| {
                    allocate(f, local_config)
                        .map(|a| (f.name().to_string(), a))
                        .map_err(|e| format!("{label}/{}/{}: {e}", subject.name, f.name()))
                })
                .collect::<Result<_, String>>()?;
            let am = AllocatedModule::new(&subject.module, &allocs, &target);
            let run = run_allocated(
                &am,
                subject.driver,
                &subject.run_args,
                &ExecOptions::default(),
            )
            .map_err(|e| format!("{label}/{}: {e}", subject.name))?;
            let same = match (&run.ret, &subject.expected_ret) {
                (Some(Scalar::Float(a)), Some(Scalar::Float(b))) => a.to_bits() == b.to_bits(),
                (a, b) => a == b,
            };
            if !same {
                return Err(format!(
                    "{label}/{}: self-check failed (ret {:?}, expected {:?})",
                    subject.name, run.ret, subject.expected_ret
                ));
            }
            cycles += run.cycles;
        }
        println!("{label:<12} {spills:>7} {copies:>15} {passes:>7} {cycles:>14}");
        table.push((label, spills, copies, passes, cycles));
    }

    // The final stats dump carries the per-strategy request/hit counters
    // the daemon kept while the lanes ran.
    let stats = client.stats().map_err(|e| e.to_string())?;
    println!("{stats}");
    client.shutdown().map_err(|e| e.to_string())?;
    handle
        .join()
        .map_err(|_| "daemon thread panicked".to_string())?;

    // Acceptance bar: IRC must remove at least as many copies as
    // conservative-mode Briggs while spilling no more — conservative
    // coalescing inside the simplify loop has to beat one conservative
    // pass up front.
    let lane = |name: &str| {
        table
            .iter()
            .find(|(l, ..)| *l == name)
            .copied()
            .ok_or_else(|| format!("lane `{name}` missing from the table"))
    };
    let (_, cons_spills, cons_copies, ..) = lane("briggs-cons")?;
    let (_, irc_spills, irc_copies, ..) = lane("irc")?;
    if irc_copies < cons_copies {
        return Err(format!(
            "irc removed {irc_copies} copies, below conservative Briggs' {cons_copies}"
        ));
    }
    if irc_spills > cons_spills {
        return Err(format!(
            "irc spilled {irc_spills} ranges, above conservative Briggs' {cons_spills}"
        ));
    }
    // The SSA track decouples spilling from coloring, so it never
    // iterates: summed passes must equal the number of functions.
    let total_functions: usize = subjects.iter().map(|s| s.module.functions().len()).sum();
    let (_, _, _, ssa_passes, _) = lane("ssa")?;
    if ssa_passes != total_functions {
        return Err(format!(
            "ssa took {ssa_passes} passes over {total_functions} functions; \
             the chordal track must be single-pass"
        ));
    }
    Ok(())
}
