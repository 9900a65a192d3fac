//! The `serve-hot` workload: a closed loop over real sockets against an
//! in-process `wfc_service::serve` with default settings and two
//! workers. Two connections keep eight requests in flight each, and
//! every request is a cache hit over all seven analysis kinds, so the
//! engines are bypassed and the wire, frontend, batching and cache read
//! path carry the load.
//!
//! The benchmark has its own generator rather than `wfc loadgen`: one
//! thread drives both connections through `poll(2)`, it keeps raw
//! response bytes for byte-identity checks against direct calls, and it
//! times the wire layer on the client side.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use wfc_obs::json::Json;
use wfc_service::wire::write_frame;
use wfc_service::{
    run_query_text, run_scenario_with, serve, Client, QueryKind, QueryOptions, Request, Response,
    ServeConfig, ServerHandle,
};
use wfc_spec::control::CancelToken;
use wfc_spec::prng::SplitMix64;

use crate::gen::{self, Input};
use crate::trace::{self, Latency, Slices, Tracer};
use crate::{Args, Layers, Pass};

/// Connections and in-flight requests per connection of the closed loop.
const HOT_CONNECTIONS: usize = 2;
const HOT_PIPELINE: usize = 8;
/// Seconds of load before the measured window, so it does not start on
/// an idle host (wake-ups from idle are slow and vary).
const SETTLE_S: u64 = 2;
/// Width of the slices the window's latencies are reduced over.
const SLICE_S: f64 = 0.1;
/// The serve-hot figures are taken over the `1 / QUIET_DIV` of the
/// window's slices in which the process got the most CPU time (see
/// `reduce`).
const QUIET_DIV: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// One request in this many gets a span of its own (the wire layer is
/// timed on every request).
const SPAN_EVERY: u64 = 64;
/// Copies of each hot input in the seeded request order.
const ORDER_ROUNDS: usize = 1024;
/// Direct re-runs of each hot input behind the `direct.*` means.
const DIRECT_RERUNS: usize = 20;
/// The longest the generator waits for any response.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(10);

fn start_server() -> std::io::Result<ServerHandle> {
    serve(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    })
}

fn kind_slot(kind: QueryKind) -> Option<(&'static str, &'static str)> {
    match kind {
        QueryKind::Sched => Some(("_direct.sched.s", "_direct.sched.n")),
        QueryKind::Scenario => Some(("_direct.scenario.s", "_direct.scenario.n")),
        QueryKind::Classify => Some(("_direct.classify.s", "_direct.classify.n")),
        QueryKind::Witness => Some(("_direct.witness.s", "_direct.witness.n")),
        _ => None,
    }
}

/// Runs one request directly (no frontend), attributing a sched run to
/// the sched layer. This is the reference every served result must
/// match byte for byte.
fn direct(
    input: &Input,
    tracer: &Tracer,
    parent: u64,
    layers: &mut Layers,
) -> Result<Json, String> {
    let opts = QueryOptions::default();
    let before = trace::allocations();
    let start = Instant::now();
    let result = if input.kind == QueryKind::Scenario {
        tracer.span("direct", parent, |id| {
            run_scenario(&input.text, tracer, id, layers)
        })
    } else {
        tracer.span("direct", parent, |_| {
            run_query_text(input.kind, &input.text, &opts).map_err(|e| e.to_string())
        })
    };
    if let (Ok(doc), QueryKind::Sched) = (&result, input.kind) {
        let secs = start.elapsed().as_secs_f64();
        account_sched(layers, doc, secs, trace::allocations() - before);
    }
    result
}

/// Re-runs every hot input of a `direct.*` kind `DIRECT_RERUNS` times
/// without the frontend, after the window and so on a warm process,
/// timing each call into the `direct.*` means and checking its result
/// against the reference taken at set-up.
fn direct_reruns(entries: &[HotEntry], references: &[Json], layers: &mut Layers, pass: &mut Pass) {
    let opts = QueryOptions::default();
    for (entry, reference) in entries.iter().zip(references) {
        let input = &entry.input;
        let Some((secs_key, count_key)) = kind_slot(input.kind) else {
            continue;
        };
        let reference = reference.render();
        for _ in 0..DIRECT_RERUNS {
            pass.attempted += 1;
            let start = Instant::now();
            let result = run_query_text(input.kind, &input.text, &opts);
            layers.add(secs_key, start.elapsed().as_secs_f64());
            layers.add(count_key, 1.0);
            match result {
                Ok(doc) if doc.render() == reference => {}
                other => pass.fail(format!(
                    "direct re-run of {} differs from the first: {other:?}",
                    input.kind
                )),
            }
        }
    }
}

/// Parses and runs one scenario file, timing each half: the same work
/// as `run_scenario_text`, split so parsing shows as its own layer.
pub fn run_scenario(
    text: &str,
    tracer: &Tracer,
    parent: u64,
    layers: &mut Layers,
) -> Result<Json, String> {
    let start = Instant::now();
    let parsed = tracer.span("scenario.parse", parent, |_| {
        wfc_scenario::parse_scenario(text)
    });
    let parsed_at = Instant::now();
    layers.add("_scenario.parse_s", (parsed_at - start).as_secs_f64());
    layers.add("_scenario.files", 1.0);
    let sc = parsed.map_err(|e| e.to_string())?;
    let doc = tracer.span("scenario.run", parent, |_| {
        run_scenario_with(&sc, &QueryOptions::default(), CancelToken::NONE, None)
    });
    layers.add("scenario.run.busy_s", parsed_at.elapsed().as_secs_f64());
    doc.map_err(|e| e.to_string())
}

/// Attributes one `run_sched` call to the sched layer: DFS or PCT busy
/// time and schedule counts, and its allocations.
pub fn account_sched(layers: &mut Layers, doc: &Json, secs: f64, allocations: u64) {
    let count = |key: &str| doc.get(key).and_then(Json::as_u64).unwrap_or(0) as f64;
    let schedules = count("schedules");
    match doc.get("mode").and_then(Json::as_str) {
        Some("pct") => {
            layers.add("sched.pct.busy_s", secs);
            layers.add("_sched.pct.schedules", schedules);
        }
        Some(_) => {
            layers.add("sched.dfs.busy_s", secs);
            layers.add("sched.dfs.schedules", schedules);
            layers.add("sched.dfs.pruned", count("pruned"));
        }
        // A replay explores no schedules of its own.
        None => {}
    }
    layers.add("sched.fixtures.busy_s", secs);
    layers.add("_sched.schedules", schedules);
    layers.add("_alloc.sched", allocations as f64);
}

/// A wire document rendered with id 0 and split around the id, so the
/// document for any id is `prefix ++ id ++ suffix`: requests and
/// responses both render `proto` and then `id` first.
struct Spliced {
    prefix: Vec<u8>,
    suffix: Vec<u8>,
}

impl Spliced {
    fn new(doc: &Json) -> Spliced {
        let text = doc.render();
        let at = text
            .find("\"id\":0,")
            .expect("a rendered wire document carries its id");
        Spliced {
            prefix: text.as_bytes()[..at + 5].to_vec(),
            suffix: text.as_bytes()[at + 6..].to_vec(),
        }
    }

    /// The exact response payload a correct server sends for `result`.
    /// Every `serve-hot` answer is a cache hit, so `cached` is true.
    fn response(result: Json) -> Spliced {
        Spliced::new(
            &Response::Ok {
                id: 0,
                cached: true,
                result,
            }
            .to_json(),
        )
    }

    /// The request frame payload for `input`, as `Client` encodes it.
    fn request(input: &Input) -> Spliced {
        Spliced::new(&request(0, input).to_json())
    }

    fn matches(&self, payload: &[u8], id: u64) -> bool {
        let (p, s) = (self.prefix.len(), self.suffix.len());
        payload.len() > p + s
            && payload.starts_with(&self.prefix)
            && payload.ends_with(&self.suffix)
            && std::str::from_utf8(&payload[p..payload.len() - s])
                .ok()
                .and_then(|d| d.parse().ok())
                == Some(id)
    }

    /// Replaces `buf` with the length-prefixed frame of the document
    /// for `id`.
    fn frame(&self, buf: &mut Vec<u8>, id: u64) {
        let id = id.to_string();
        let len = self.prefix.len() + id.len() + self.suffix.len();
        buf.clear();
        buf.extend_from_slice(&(len as u32).to_be_bytes());
        buf.extend_from_slice(&self.prefix);
        buf.extend_from_slice(id.as_bytes());
        buf.extend_from_slice(&self.suffix);
    }
}

/// The id of a response payload, read without decoding it (see
/// [`Spliced`]).
fn response_id(payload: &[u8]) -> Option<u64> {
    let at = payload.windows(5).position(|w| w == b"\"id\":")? + 5;
    let digits = payload[at..]
        .iter()
        .take_while(|b| b.is_ascii_digit())
        .count();
    std::str::from_utf8(&payload[at..at + digits])
        .ok()?
        .parse()
        .ok()
}

/// A length-prefixed frame splitter that keeps each payload's raw
/// bytes for byte-identity checks.
#[derive(Default)]
struct Frames {
    buf: Vec<u8>,
    start: usize,
}

impl Frames {
    /// Appends what one read returns; call it only when `poll` reports
    /// the stream readable, so the read does not block.
    fn fill(&mut self, stream: &mut TcpStream) -> std::io::Result<()> {
        self.buf.drain(..self.start);
        self.start = 0;
        let mut chunk = [0u8; 16 * 1024];
        match stream.read(&mut chunk)? {
            0 => Err(std::io::ErrorKind::UnexpectedEof.into()),
            n => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(())
            }
        }
    }

    /// The byte range of the next complete payload already read, if any.
    fn take(&mut self) -> Option<std::ops::Range<usize>> {
        let pending = &self.buf[self.start..];
        let len = u32::from_be_bytes(pending.get(..4)?.try_into().ok()?) as usize;
        if pending.len() < 4 + len {
            return None;
        }
        let range = self.start + 4..self.start + 4 + len;
        self.start += 4 + len;
        Some(range)
    }
}

/// `poll(2)`, declared the way the server's poller declares it: one
/// generator thread waits on every connection at once.
#[repr(C)]
struct PollFd {
    fd: std::os::raw::c_int,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x001;

extern "C" {
    fn poll(
        fds: *mut PollFd,
        nfds: std::os::raw::c_ulong,
        timeout: std::os::raw::c_int,
    ) -> std::os::raw::c_int;
}

/// Waits until one of `fds` is readable; fails after `RESPONSE_TIMEOUT`.
fn wait_readable(fds: &mut [PollFd]) -> std::io::Result<()> {
    loop {
        let ms = RESPONSE_TIMEOUT.as_millis() as std::os::raw::c_int;
        // SAFETY: `fds` is a live, exclusively borrowed array of `PollFd`s
        // laid out as `struct pollfd`, and `nfds` is its length.
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as std::os::raw::c_ulong, ms) };
        match rc {
            0 => return Err(std::io::ErrorKind::TimedOut.into()),
            n if n > 0 => return Ok(()),
            _ => {
                let e = std::io::Error::last_os_error();
                if e.kind() != std::io::ErrorKind::Interrupted {
                    return Err(e);
                }
            }
        }
    }
}

fn request(id: u64, input: &Input) -> Request {
    Request {
        id,
        kind: input.kind,
        type_text: input.text.clone(),
        options: QueryOptions::default(),
    }
}

/// The wire layer's client half: encode a request into a frame.
fn encode(buf: &mut Vec<u8>, id: u64, input: &Input) {
    buf.clear();
    write_frame(buf, &request(id, input).to_json())
        .expect("writing a frame into memory cannot fail");
}

/// The wire layer's client half: decode a frame payload.
fn decode(payload: &[u8]) -> Option<Response> {
    let text = std::str::from_utf8(payload).ok()?;
    Response::from_json(&wfc_obs::json::parse(text).ok()?).ok()
}

fn connect(addr: std::net::SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// A histogram reading: count, total and `(upper bound, count)` buckets.
type Hist = (u64, u64, Vec<(u64, u64)>);

/// Counter and histogram readings from one `stats` scrape.
#[derive(Default)]
struct Scrape {
    counters: HashMap<String, u64>,
    hists: HashMap<String, Hist>,
}

fn scrape(addr: std::net::SocketAddr) -> Result<Scrape, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("stats connect: {e}"))?;
    let reply = client
        .query(QueryKind::Stats, "", &QueryOptions::default())
        .map_err(|e| format!("stats query: {e}"))?;
    let Response::Ok { result, .. } = reply else {
        return Err(format!("stats query answered {reply:?}"));
    };
    let mut out = Scrape::default();
    for (name, v) in result.get("counters").and_then(Json::as_obj).unwrap_or(&[]) {
        out.counters.insert(name.clone(), v.as_u64().unwrap_or(0));
    }
    for (name, h) in result
        .get("histograms")
        .and_then(Json::as_obj)
        .unwrap_or(&[])
    {
        let field = |k: &str| h.get(k).and_then(Json::as_u64).unwrap_or(0);
        let buckets = h
            .get("buckets")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(|b| {
                Some((
                    b.as_arr()?.first()?.as_u64()?,
                    b.as_arr()?.get(1)?.as_u64()?,
                ))
            })
            .collect();
        out.hists
            .insert(name.clone(), (field("count"), field("total"), buckets));
    }
    Ok(out)
}

/// Turns the server's counters and stage histograms, differenced over
/// the measured window, into per-layer metrics. Stage percentiles are
/// the upper bounds of power-of-two buckets, so the means are the
/// primary stage numbers.
fn server_layers(before: &Scrape, after: &Scrape, layers: &mut Layers) {
    let counter = |name: &str| {
        let get = |s: &Scrape| s.counters.get(name).copied().unwrap_or(0);
        get(after).saturating_sub(get(before)) as f64
    };
    let hist = |name: &str| -> (f64, f64, Vec<(u64, u64)>) {
        let empty = (0, 0, Vec::new());
        let (c1, t1, b1) = after.hists.get(name).unwrap_or(&empty);
        let (c0, t0, b0) = before.hists.get(name).unwrap_or(&empty);
        let earlier: HashMap<u64, u64> = b0.iter().copied().collect();
        let buckets = b1
            .iter()
            .map(|&(ub, n)| (ub, n - earlier.get(&ub).copied().unwrap_or(0)))
            .collect();
        ((c1 - c0) as f64, (t1 - t0) as f64, buckets)
    };
    let mean = |name: &str| {
        let (count, total, _) = hist(name);
        if count > 0.0 {
            total / count
        } else {
            0.0
        }
    };
    let p99 = |name: &str| {
        let (count, _, buckets) = hist(name);
        let rank = ((0.99 * count).ceil() as u64).max(1);
        buckets
            .iter()
            .scan(0u64, |acc, &(ub, n)| {
                *acc += n;
                Some((ub, *acc))
            })
            .find(|&(_, acc)| acc >= rank)
            .map_or(0.0, |(ub, _)| ub as f64)
    };
    for (stage, key) in [
        ("decode", "stage.decode.mean_us"),
        ("respond", "stage.respond.mean_us"),
        ("flush", "stage.flush.mean_us"),
        ("admit", "stage.admit.mean_us"),
        ("batch", "stage.batch.mean_us"),
        ("queue", "stage.queue.mean_us"),
        ("engine", "stage.engine.mean_us"),
    ] {
        layers.set(key, mean(&format!("service.stage.{stage}_us")));
    }
    layers.set("stage.queue.p99_us", p99("service.stage.queue_us"));
    layers.set("stage.engine.p99_us", p99("service.stage.engine_us"));
    layers.set("batch.entries_per_dispatch", mean("service.batch.entries"));
    let requests = counter("service.requests").max(1.0);
    layers.set(
        "conn.spilled_ratio",
        counter("service.conn.spilled") / requests,
    );
    layers.set(
        "batch.coalesced_ratio",
        counter("service.batch.coalesced") / requests,
    );
    layers.set(
        "service.busy_ratio",
        counter("service.responses.busy") / requests,
    );
    let hits = counter("service.cache.mem.hits");
    let lookups = hits + counter("service.cache.mem.misses");
    layers.set(
        "cache.hit_ratio",
        if lookups > 0.0 { hits / lookups } else { 0.0 },
    );
    println!(
        "# server window: requests={requests} stage.queue n={} stage.engine n={} (stage p99s are power-of-two bucket bounds)",
        hist("service.stage.queue_us").0,
        hist("service.stage.engine_us").0
    );
}

/// What the generator saw over every connection.
struct LoadStats {
    sent: u64,
    latencies: Slices,
    /// The first few failure messages, and a count of the rest.
    failures: Vec<String>,
    more_failures: u64,
    encode_ns: u64,
    decode_ns: u64,
    wire_ops: u64,
}

impl LoadStats {
    fn new(latencies: Slices) -> LoadStats {
        LoadStats {
            sent: 0,
            latencies,
            failures: Vec::new(),
            more_failures: 0,
            encode_ns: 0,
            decode_ns: 0,
            wire_ops: 0,
        }
    }

    fn fail(&mut self, message: String) {
        if self.failures.len() < 20 {
            self.failures.push(message);
        } else {
            self.more_failures += 1;
        }
    }
}

/// Reduces the window's answers to the pass's throughput, p50 and p99,
/// taken over its quiet slices. On a shared host other tenants take the
/// CPUs away for a fraction of a second to several seconds at a time
/// (hypervisor steal), and the tail and the rate go with them. So the
/// slices are ranked by the CPU time the process got in each, and the
/// `1 / QUIET_DIV` that got the most are kept: throughput is the median
/// of their answer rates, p50 and p99 the medians of their own
/// percentiles. A change that slows the program slows every slice, the
/// kept ones too. A kept slice too small to support a p99 gives none:
/// the p99 is the median over the kept slices that do, and the run
/// fails when no slice does. The whole window is printed too.
fn reduce(pass: &mut Pass, slices: Slices, what: &str) {
    let answered = slices.answered();
    let slices = slices.into_slices();
    let all: Vec<f64> = slices
        .iter()
        .flat_map(|s| s.sample.iter().copied())
        .collect();
    println!(
        "# {}; whole window: {:.1} answers/s",
        Latency::of(all).describe(what),
        answered as f64 / pass.wall_s
    );
    let mut quiet: Vec<(f64, &trace::Slice)> = slices
        .iter()
        .filter_map(|s| Some((s.cpu_share?, s)))
        .collect();
    quiet.sort_by(|a, b| b.0.total_cmp(&a.0));
    quiet.truncate(quiet.len().div_ceil(QUIET_DIV));
    let (Some(&(most, _)), Some(&(least, _))) = (quiet.first(), quiet.last()) else {
        pass.fail(format!("{what}: no slice with a CPU share to rank"));
        return;
    };
    let (mut rates, mut p50s, mut p99s) = (Vec::new(), Vec::new(), Vec::new());
    for (_, slice) in &quiet {
        rates.push(slice.rate);
        let lat = Latency::of(slice.sample.clone());
        p50s.push(lat.p50);
        p99s.extend(lat.p99);
    }
    if p99s.is_empty() {
        pass.fail(format!("{what}: no kept slice can support a p99"));
    }
    pass.throughput = trace::median(&rates);
    pass.p50_us = trace::median(&p50s);
    pass.p99_us = trace::median(&p99s);
    println!(
        "# {what}: {} of {} slices of {SLICE_S} s kept (CPU share {least:.2} to {most:.2}), \
         {} supporting a p99: median rate={:.1} p50={:.1} p99={:.1}",
        quiet.len(),
        slices.len(),
        p99s.len(),
        pass.throughput,
        pass.p50_us,
        pass.p99_us
    );
}

struct HotEntry {
    input: Input,
    request: Spliced,
    expected: Spliced,
}

/// The seven warmed requests: every analysis kind once.
fn hot_inputs(seed: u64) -> Result<Vec<Input>, String> {
    use wfc_spec::canonical;
    use wfc_spec::text::format_type;
    let tas = format_type(&canonical::test_and_set(2));
    // Classify and witness take a seeded random FSM; the other kinds need
    // a type with a registered consensus protocol.
    let fsm = gen::random_type(&mut SplitMix64::new(seed), "hot", 5);
    let scenario = std::fs::read_to_string("scenarios/tas.scn")
        .map_err(|e| format!("reading scenarios/tas.scn (run from the repository root): {e}"))?;
    let input = |kind, text: &str| Input {
        kind,
        text: text.to_owned(),
    };
    Ok(vec![
        input(QueryKind::Classify, &fsm),
        input(QueryKind::Witness, &fsm),
        input(QueryKind::AccessBounds, &tas),
        input(QueryKind::Theorem5, &tas),
        input(QueryKind::VerifyConsensus, &tas),
        input(QueryKind::Sched, "srsw"),
        input(QueryKind::Scenario, &scenario),
    ])
}

/// Starts a server and warms every entry through it, checking each
/// first (computed) answer against the direct result.
fn hot_setup(entries: &[HotEntry], direct_docs: &[Json], pass: &mut Pass) -> Option<ServerHandle> {
    let handle = match start_server() {
        Ok(h) => h,
        Err(e) => {
            pass.fail(format!("server start: {e}"));
            return None;
        }
    };
    let mut client = match Client::connect(handle.addr()) {
        Ok(c) => c,
        Err(e) => {
            pass.fail(format!("connect: {e}"));
            return Some(handle);
        }
    };
    for (entry, doc) in entries.iter().zip(direct_docs) {
        pass.attempted += 1;
        match client.query(
            entry.input.kind,
            &entry.input.text,
            &QueryOptions::default(),
        ) {
            Ok(Response::Ok { result, .. }) if result.render() == doc.render() => {}
            other => pass.fail(format!("warm-up {} answered {other:?}", entry.input.kind)),
        }
    }
    Some(handle)
}

/// What every closed-loop connection shares.
struct HotLoad<'a> {
    addr: std::net::SocketAddr,
    entries: &'a [HotEntry],
    order: &'a [usize],
    deadline: Instant,
    tracer: &'a Tracer,
    window_span: u64,
}

/// One closed-loop connection: its socket, the frames read from it, and
/// its requests in flight (entry, encode start, encode end).
struct Conn {
    stream: TcpStream,
    frames: Frames,
    inflight: HashMap<u64, (usize, Instant, Instant)>,
    next_id: u64,
    cursor: usize,
}

impl Conn {
    /// Sends the next request of the connection's order. A traced pass
    /// encodes it as `Client` does, timing the wire layer; the other
    /// passes splice the id into the same bytes, encoded once, so the
    /// generator leaves the CPUs to the server.
    fn send(
        &mut self,
        load: &HotLoad,
        buf: &mut Vec<u8>,
        stats: &mut LoadStats,
    ) -> std::io::Result<()> {
        let entry = load.order[self.cursor % load.order.len()];
        self.cursor += 1;
        let id = self.next_id;
        self.next_id += 1;
        let t0 = Instant::now();
        if load.tracer.on() {
            encode(buf, id, &load.entries[entry].input);
        } else {
            load.entries[entry].request.frame(buf, id);
        }
        let t1 = Instant::now();
        if load.tracer.on() {
            stats.encode_ns += (t1 - t0).as_nanos() as u64;
        }
        self.inflight.insert(id, (entry, t0, t1));
        stats.sent += 1;
        self.stream.write_all(buf)
    }

    /// Checks and times every complete response read so far, sending a
    /// replacement for each until the deadline. `Err` ends the loop.
    ///
    /// Each payload is compared byte for byte with the expected one. A
    /// traced pass also decodes it as `Client` does, timing the wire
    /// layer; the other passes only read its id.
    fn answer(
        &mut self,
        load: &HotLoad,
        buf: &mut Vec<u8>,
        stats: &mut LoadStats,
    ) -> Result<(), String> {
        let timed = load.tracer.on();
        while let Some(range) = self.frames.take() {
            let received = Instant::now();
            let payload = &self.frames.buf[range];
            let id = if timed {
                decode(payload).map(|r| r.id())
            } else {
                response_id(payload)
            };
            let decoded = Instant::now();
            if timed {
                stats.decode_ns += (decoded - received).as_nanos() as u64;
                stats.wire_ops += 1;
            }
            let Some((id, (entry, t0, t1))) = id.and_then(|id| self.inflight.remove_entry(&id))
            else {
                return Err(format!(
                    "undecodable or unknown response: {}",
                    String::from_utf8_lossy(&payload[..payload.len().min(200)])
                ));
            };
            if !load.entries[entry].expected.matches(payload, id) {
                stats.fail(format!(
                    "request {id} ({}): response differs from the direct result: {}",
                    load.entries[entry].input.kind,
                    String::from_utf8_lossy(&payload[..payload.len().min(200)])
                ));
            }
            stats
                .latencies
                .push(decoded, (decoded - t0).as_secs_f64() * 1e6);
            if timed && id.is_multiple_of(SPAN_EVERY) {
                let req = load
                    .tracer
                    .record("request", t0, decoded, load.window_span, id);
                load.tracer.record("wire.encode", t0, t1, req, id);
                load.tracer
                    .record("wire.decode", received, decoded, req, id);
            }
            if Instant::now() < load.deadline {
                self.send(load, buf, stats)
                    .map_err(|e| format!("send: {e}"))?;
            }
        }
        Ok(())
    }
}

/// The closed loop: `HOT_CONNECTIONS` connections, each keeping
/// `HOT_PIPELINE` requests in flight and replacing every answer until
/// the load's deadline, then draining. One thread drives them all
/// through `poll(2)`, so on a small host the generator takes one CPU's
/// share at most and leaves the rest to the server's threads.
fn closed_loop(load: &HotLoad, latencies: Slices) -> LoadStats {
    let mut stats = LoadStats::new(latencies);
    let mut conns = Vec::new();
    for c in 0..HOT_CONNECTIONS {
        match connect(load.addr) {
            Ok(stream) => conns.push(Conn {
                stream,
                frames: Frames::default(),
                inflight: HashMap::new(),
                next_id: 1,
                cursor: c * load.order.len() / HOT_CONNECTIONS,
            }),
            Err(e) => {
                stats.fail(format!("connect: {e}"));
                return stats;
            }
        }
    }
    let mut buf = Vec::new();
    for conn in &mut conns {
        for _ in 0..HOT_PIPELINE {
            if let Err(e) = conn.send(load, &mut buf, &mut stats) {
                stats.fail(format!("send: {e}"));
                return stats;
            }
        }
    }
    let mut fds: Vec<PollFd> = conns
        .iter()
        .map(|c| PollFd {
            fd: c.stream.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        })
        .collect();
    while conns.iter().any(|c| !c.inflight.is_empty()) {
        if let Err(e) = wait_readable(&mut fds) {
            let lost: usize = conns.iter().map(|c| c.inflight.len()).sum();
            stats.fail(format!("{lost} request(s) got no response: {e}"));
            return stats;
        }
        for (conn, fd) in conns.iter_mut().zip(&mut fds) {
            if fd.revents == 0 {
                continue;
            }
            let read = conn
                .frames
                .fill(&mut conn.stream)
                .map_err(|e| format!("receive: {e}"));
            if let Err(e) = read.and_then(|()| conn.answer(load, &mut buf, &mut stats)) {
                stats.fail(e);
                return stats;
            }
            if conn.inflight.is_empty() {
                // Drained: `poll` skips negative descriptors.
                fd.fd = -1;
            }
        }
    }
    stats
}

/// `serve-hot`: see the module docs.
pub fn hot(args: &Args, tracer: &Tracer) -> Pass {
    let mut pass = Pass::default();
    let mut layers = Layers::default();
    let inputs = match hot_inputs(args.seed) {
        Ok(i) => i,
        Err(e) => {
            pass.fail(e);
            return pass;
        }
    };
    let mut direct_docs = Vec::new();
    for input in &inputs {
        match direct(input, tracer, 0, &mut layers) {
            Ok(doc) => direct_docs.push(doc),
            Err(e) => {
                pass.fail(format!("direct {}: {e}", input.kind));
                return pass;
            }
        }
    }
    let entries: Vec<HotEntry> = inputs
        .into_iter()
        .zip(&direct_docs)
        .map(|(input, doc)| HotEntry {
            request: Spliced::request(&input),
            expected: Spliced::response(doc.clone()),
            input,
        })
        .collect();

    // Set up several times; the last server stays up for the window.
    let setups = if tracer.on() { 1 } else { SETUPS };
    let mut setup_times = Vec::new();
    let mut handle = None;
    for _ in 0..setups {
        if let Some(old) = handle.take() {
            ServerHandle::shutdown(old);
        }
        let start = Instant::now();
        handle = hot_setup(&entries, &direct_docs, &mut pass);
        setup_times.push(start.elapsed().as_secs_f64());
    }
    pass.setup_s = trace::median(&setup_times);
    println!("# setup_s samples: {setup_times:?}");
    let Some(handle) = handle else { return pass };
    if pass.failed() > 0 {
        handle.shutdown();
        return pass;
    }
    let addr = handle.addr();

    // A seeded order over a fixed composition: every kind equally often.
    // The order repeats, so it is long: the tail depends on how large
    // answers cluster in it, and a long order averages that out where a
    // short one would fix a different tail for every seed.
    let mut rng = SplitMix64::new(args.seed);
    let cycle: Vec<usize> = (0..ORDER_ROUNDS * entries.len())
        .map(|i| i % entries.len())
        .collect();
    let order: Vec<usize> = gen::shuffled(&mut rng, cycle.len())
        .into_iter()
        .map(|i| cycle[i])
        .collect();

    // Settle (see `SETTLE_S`): the same closed loop, answers checked.
    let settle_start = Instant::now();
    let settle = HotLoad {
        addr,
        entries: &entries,
        order: &order,
        deadline: settle_start + Duration::from_secs(SETTLE_S),
        tracer: &Tracer::new(false),
        window_span: 0,
    };
    let settled = closed_loop(
        &settle,
        Slices::new(settle_start, 1.0, SETTLE_S as usize, 0),
    );
    pass.attempted += settled.sent;
    for f in settled.failures {
        pass.fail(format!("settling: {f}"));
    }
    pass.more_failures += settled.more_failures;

    let before = if tracer.on() { scrape(addr).ok() } else { None };
    let allocs_before = trace::allocations();
    let start = Instant::now();
    let window_span = tracer.open();
    let load = HotLoad {
        addr,
        entries: &entries,
        order: &order,
        deadline: start + Duration::from_secs(args.seconds),
        tracer,
        window_span,
    };
    let slices = (args.seconds as f64 / SLICE_S).round() as usize;
    let stats = closed_loop(&load, Slices::new(start, SLICE_S, slices, args.seed));
    pass.wall_s = start.elapsed().as_secs_f64();
    let allocs = trace::allocations() - allocs_before;
    tracer.close(window_span, "window", start, Instant::now(), 0, 0);

    pass.attempted += stats.sent;
    for f in stats.failures {
        pass.fail(f);
    }
    pass.more_failures += stats.more_failures;
    let completed = stats.latencies.answered();
    reduce(
        &mut pass,
        stats.latencies,
        "serve-hot latency_us (encode start to decode end)",
    );

    if tracer.on() {
        if let (Some(before), Ok(after)) = (before, scrape(addr)) {
            server_layers(&before, &after, &mut layers);
        }
        let ops = stats.wire_ops.max(1) as f64;
        layers.set("wire.encode_ns", stats.encode_ns as f64 / ops);
        layers.set("wire.decode_ns", stats.decode_ns as f64 / ops);
        layers.set("alloc.per_request", allocs as f64 / completed.max(1) as f64);
    }
    handle.shutdown();
    if tracer.on() {
        direct_reruns(&entries, &direct_docs, &mut layers, &mut pass);
    }
    pass.layers = layers;
    pass
}
