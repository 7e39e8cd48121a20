//! The serve workloads: `xpath_core::serve::Server` on a Unix socket,
//! driven by two closed-loop connections from this process (the line
//! protocol has no pipelining, so each connection waits for its reply).
//!
//! * `serve-hot`: one ≈20k-node document and 16 fixed request lines
//!   (Core XPath node sets, large `count(//x)`, `position()` and string
//!   tests, 4-query batches sharing prefixes) in a seeded order. The
//!   query cache always hits and the store never reloads.
//! * `serve-churn`: 64 small documents, ad-hoc queries from a seeded
//!   grammar (16× more distinct texts than the server's 256-entry cache)
//!   and a republish of one document, with identical content, after
//!   every 64th request of connection 0.
//!
//! A traced run replays the same request lines in process twice: once
//! through `Server::handle_line`, and once by calling the layers in the
//! server's own order (JSON parse → store open → cache lookup → evaluate
//! or batch → render) with a span around each call.

use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use xpath_axes::KernelCounts;
use xpath_core::serve::{Json, ServeConfig, Server};
use xpath_core::{
    CompiledQuery, Compiler, Context, DocumentStore, EvalBudget, QueryCache, QuerySetBuilder,
    Strategy, Value,
};
use xpath_xml::rng::{splitmix64, Rng};
use xpath_xml::Document;

use crate::answer::{classify_response, render_result, str_digest, Outcome, Tally};
use crate::gen::{self, DocSpec};
use crate::layers;
use crate::stats;
use crate::sys::{self, json_str, TempDir};
use crate::trace::{self, Kind, Profile, Tracer};
use crate::{Args, Report, SETUPS};

/// Which serve workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Flavor {
    /// Stable working set on one mid-size document.
    Hot,
    /// Many small documents, ad-hoc queries, live republishes.
    Churn,
}

/// Closed-loop connections (and server permits).
const CONNECTIONS: usize = 2;
/// The `serve-hot` document (the size of the repository's serve bench
/// document).
const HOT_SPEC: DocSpec = DocSpec { target_nodes: 20_000, max_depth: 7, max_fanout: 4 };
/// Permutations of the 16 hot lines per connection stream.
const HOT_ROUNDS: usize = 64;
/// `serve-churn` document count and node-count range.
const CHURN_DOCS: usize = 64;
const CHURN_NODES: (u64, u64) = (100, 280);
/// Distinct ad-hoc query texts (16× the server's cache capacity).
const CHURN_POOL: usize = 4096;
/// Requests per connection stream before it repeats.
const CHURN_CYCLE: usize = 8192;
/// Connection 0 republishes one document after this many requests.
const REPUBLISH_EVERY: u64 = 64;
/// Requests each connection sends to warm up before the window.
const CHURN_WARMUP: usize = 128;
/// Alternating untraced/traced replay slices of a traced run.
const TRACE_SLICES: usize = 4;
/// Server cache capacity (the server default, stated for the notes).
const SERVER_CACHE: usize = 256;
/// Latency samples preallocated (and touched) per connection before a
/// window, so the sample buffers add a constant to peak memory instead
/// of growing with throughput.
const SAMPLE_CAP: usize = 1 << 20;

struct Line {
    doc: usize,
    queries: Vec<String>,
    /// The request line, newline-terminated.
    text: String,
}

struct Inputs {
    names: Vec<String>,
    xml: Vec<String>,
    lines: Vec<Line>,
    streams: Vec<Vec<u32>>,
    /// Distinct query texts, in generation order.
    texts: Vec<String>,
}

fn request_line(doc: &str, queries: &[String]) -> String {
    if let [q] = queries {
        format!("{{\"doc\":{},\"query\":{}}}\n", json_str(doc), json_str(q))
    } else {
        let qs: Vec<String> = queries.iter().map(|q| json_str(q)).collect();
        format!("{{\"doc\":{},\"queries\":[{}]}}\n", json_str(doc), qs.join(","))
    }
}

/// Generate the workload's documents and request streams from the seed,
/// and check the documents' sizes and label mix.
fn inputs(flavor: Flavor, seed: u64) -> Result<(Inputs, Vec<Document>, f64), String> {
    let mut rng =
        Rng::seed_from_u64(seed ^ if flavor == Flavor::Hot { 0x5E_4407 } else { 0xC4_0A2 });
    let (specs, names): (Vec<DocSpec>, Vec<String>) = match flavor {
        Flavor::Hot => (vec![HOT_SPEC], vec!["hot".to_owned()]),
        // Sizes evenly spread over the range (content is seeded), so runs
        // differ in what the documents hold, not in how much there is.
        Flavor::Churn => (0..CHURN_DOCS)
            .map(|i| {
                let n = CHURN_NODES.0
                    + (CHURN_NODES.1 - CHURN_NODES.0) * i as u64 / (CHURN_DOCS as u64 - 1);
                let spec = DocSpec {
                    target_nodes: usize::try_from(n).expect("small"),
                    max_depth: 5,
                    max_fanout: 3,
                };
                (spec, format!("d{i:02}"))
            })
            .unzip(),
    };
    let generated: Vec<gen::GenDoc> = specs.iter().map(|s| gen::document(&mut rng, *s)).collect();
    let t = Instant::now();
    let docs = generated
        .iter()
        .map(|g| Document::parse_str(&g.xml).map_err(|e| format!("parse: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    let parse_ms = t.elapsed().as_secs_f64() * 1e3;
    for (d, g) in docs.iter().zip(&generated) {
        let tol = if flavor == Flavor::Hot { gen::SIZE_TOLERANCE } else { 0.1 };
        gen::check_size(d.len(), g.spec.target_nodes, tol)?;
    }
    gen::check_mix(&docs.iter().collect::<Vec<_>>())?;

    let mut lines = Vec::new();
    let mut streams = Vec::new();
    let mut texts = Vec::new();
    match flavor {
        Flavor::Hot => {
            for queries in gen::hot_lines(&mut rng) {
                for q in &queries {
                    if !texts.contains(q) {
                        texts.push(q.clone());
                    }
                }
                let text = request_line(&names[0], &queries);
                lines.push(Line { doc: 0, queries, text });
            }
            for _ in 0..CONNECTIONS {
                let mut s = Vec::new();
                for _ in 0..HOT_ROUNDS {
                    s.extend(gen::permutation(&mut rng, lines.len()).into_iter().map(|i| i as u32));
                }
                streams.push(s);
            }
        }
        Flavor::Churn => {
            texts = gen::churn_queries(&mut rng, CHURN_POOL);
            for c in 0..CONNECTIONS {
                let base = lines.len();
                for _ in 0..CHURN_CYCLE {
                    let doc = usize::try_from(rng.next_u64() % CHURN_DOCS as u64).expect("small");
                    let q =
                        &texts[usize::try_from(rng.next_u64() % CHURN_POOL as u64).expect("small")];
                    let queries = vec![q.clone()];
                    let text = request_line(&names[doc], &queries);
                    lines.push(Line { doc, queries, text });
                }
                streams.push(
                    (base..base + CHURN_CYCLE).map(|i| u32::try_from(i).expect("fits")).collect(),
                );
                debug_assert_eq!(c + 1, streams.len());
            }
        }
    }
    let xml = generated.into_iter().map(|g| g.xml).collect();
    Ok((Inputs { names, xml, lines, streams, texts }, docs, parse_ms))
}

/// The document republished after the `k`-th interval.
fn republish_target(seed: u64, k: u64, docs: usize) -> usize {
    usize::try_from(splitmix64(seed ^ (k + 1).wrapping_mul(0x9E37_79B9)) % docs as u64)
        .expect("small")
}

struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
    buf: String,
}

impl Conn {
    fn connect(sock: &Path) -> Result<Conn, String> {
        let deadline = Instant::now() + Duration::from_secs(10);
        let stream = loop {
            match UnixStream::connect(sock) {
                Ok(s) => break s,
                Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(1)),
                Err(e) => return Err(format!("connect {}: {e}", sock.display())),
            }
        };
        stream.set_read_timeout(Some(Duration::from_secs(60))).map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn { reader, writer: stream, buf: String::new() })
    }

    /// One round trip; `None` on a transport error.
    fn send(&mut self, line: &str) -> Option<&str> {
        self.writer.write_all(line.as_bytes()).ok()?;
        self.buf.clear();
        match self.reader.read_line(&mut self.buf) {
            Ok(n) if n > 0 => Some(self.buf.trim_end()),
            _ => None,
        }
    }
}

enum Transport<'a> {
    Socket(Conn),
    InProcess(&'a Server),
}

impl Transport<'_> {
    fn send(&mut self, line: &str) -> Outcome {
        match self {
            Transport::Socket(c) => c.send(line).map_or(Outcome::Failed, classify_response),
            Transport::InProcess(s) => classify_response(&s.handle_line(line.trim_end())),
        }
    }
}

struct Setup {
    server: Arc<Server>,
    accept: Option<JoinHandle<std::io::Result<()>>>,
    sock: PathBuf,
    conns: Vec<Conn>,
    inputs: Inputs,
    docs: Vec<Document>,
    parse_ms: f64,
    publish_ms: f64,
    dir: TempDir,
}

impl Drop for Setup {
    fn drop(&mut self) {
        self.conns.clear();
        self.server.begin_shutdown();
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

fn setup(flavor: Flavor, seed: u64) -> Result<Setup, String> {
    let tag = if flavor == Flavor::Hot { "serve-hot" } else { "serve-churn" };
    let dir = TempDir::new(tag, seed).map_err(|e| format!("temp dir: {e}"))?;
    let (inputs, docs, parse_ms) = inputs(flavor, seed)?;
    let mut config = ServeConfig::new(dir.path().join("store"));
    config.permits = CONNECTIONS;
    config.cache_capacity = SERVER_CACHE;
    config.read_timeout = Duration::from_millis(5);
    config.drain_timeout = Duration::from_secs(10);
    let server = Arc::new(Server::new(config).map_err(|e| e.to_string())?);
    let t = Instant::now();
    for (name, doc) in inputs.names.iter().zip(&docs) {
        server.store().publish(name, doc).map_err(|e| e.to_string())?;
    }
    let publish_ms = t.elapsed().as_secs_f64() * 1e3;
    let sock = dir.path().join("s.sock");
    let accept = {
        let server = Arc::clone(&server);
        let sock = sock.clone();
        std::thread::spawn(move || server.serve_unix(&sock))
    };
    let mut s = Setup {
        server,
        accept: Some(accept),
        sock,
        conns: Vec::new(),
        inputs,
        docs,
        parse_ms,
        publish_ms,
        dir,
    };
    for _ in 0..CONNECTIONS {
        s.conns.push(Conn::connect(&s.sock)?);
    }
    // Warm up: compile the warm set and open the documents.
    let n = warm_len(flavor, s.inputs.lines.len());
    for (c, conn) in s.conns.iter_mut().enumerate() {
        for &idx in &s.inputs.streams[c][..n] {
            if let Outcome::Failed = conn
                .send(&s.inputs.lines[idx as usize].text)
                .map_or(Outcome::Failed, classify_response)
            {
                return Err(format!(
                    "warmup request failed: {}",
                    s.inputs.lines[idx as usize].text.trim_end()
                ));
            }
        }
    }
    Ok(s)
}

/// The warmup's length in each connection's stream: every hot line
/// once, or the first [`CHURN_WARMUP`] churn requests.
fn warm_len(flavor: Flavor, lines: usize) -> usize {
    match flavor {
        Flavor::Hot => lines,
        Flavor::Churn => CHURN_WARMUP,
    }
}

#[derive(Default)]
struct Load {
    tally: Tally,
    latencies_ns: Vec<u32>,
    elapsed: Duration,
}

/// Drive one closed loop per transport over its stream from `start`,
/// until `seconds` have passed and `min_ops` completed (capped at three
/// times `seconds`). Connection 0 calls `republish` after every
/// [`REPUBLISH_EVERY`] of its requests when given one; publish time
/// counts in the window but in no request's latency. Each answer is
/// checked against `expected` as it arrives.
fn drive(
    s: &Setup,
    expected: &[u64],
    transports: Vec<Transport<'_>>,
    start: usize,
    seconds: f64,
    min_ops: usize,
    republish: Option<&(dyn Fn(u64) + Sync)>,
) -> Load {
    let stop = AtomicBool::new(false);
    let done = AtomicU64::new(0);
    let barrier = Barrier::new(transports.len() + 1);
    let mut load = Load::default();
    std::thread::scope(|scope| {
        let workers: Vec<_> = transports
            .into_iter()
            .enumerate()
            .map(|(c, mut transport)| {
                let (stop, done, barrier) = (&stop, &done, &barrier);
                let stream = &s.inputs.streams[c];
                let lines = &s.inputs.lines;
                scope.spawn(move || {
                    let mut out =
                        Load { latencies_ns: vec![u32::MAX; SAMPLE_CAP], ..Load::default() };
                    out.latencies_ns.clear();
                    let mut pos = start;
                    let mut sent = 0u64;
                    barrier.wait();
                    while !stop.load(Ordering::Relaxed) {
                        let idx = stream[pos % stream.len()];
                        pos += 1;
                        let t = Instant::now();
                        let outcome = transport.send(&lines[idx as usize].text);
                        out.latencies_ns
                            .push(u32::try_from(t.elapsed().as_nanos()).unwrap_or(u32::MAX));
                        out.tally.record(expected, idx, outcome);
                        done.fetch_add(1, Ordering::Relaxed);
                        sent += 1;
                        if let (0, Some(publish)) = (c, republish) {
                            if sent.is_multiple_of(REPUBLISH_EVERY) {
                                publish(sent / REPUBLISH_EVERY - 1);
                            }
                        }
                    }
                    out
                })
            })
            .collect();
        barrier.wait();
        let began = Instant::now();
        let want = Duration::from_secs_f64(seconds);
        let cap = Duration::from_secs_f64(seconds * 3.0);
        loop {
            let e = began.elapsed();
            let n = usize::try_from(done.load(Ordering::Relaxed)).unwrap_or(usize::MAX);
            if (e >= want && n >= min_ops) || e >= cap {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        stop.store(true, Ordering::Relaxed);
        for w in workers {
            let part = w.join().expect("load thread panicked");
            load.tally.merge(part.tally);
            load.latencies_ns.extend(part.latencies_ns);
        }
        load.elapsed = began.elapsed();
    });
    load
}

/// Calls the layers in the server's request order, with spans, against
/// its own store and cache handles (so their counters are exact).
struct Replayer {
    store: DocumentStore,
    cache: QueryCache,
    compiler: Compiler,
    cancel: Arc<AtomicBool>,
    /// Documents republished since their last open.
    stale: HashSet<String>,
    kernels: KernelCounts,
    memo_hits: u64,
    memo_misses: u64,
    /// Position in connection 0's stream, and requests replayed so far.
    pos: usize,
    sent: u64,
    /// Republish like the socket clients (`serve-churn`), with this seed.
    republish: Option<u64>,
    tally: Tally,
}

impl Replayer {
    fn new(store_dir: &Path, start: usize, republish: Option<u64>) -> Result<Replayer, String> {
        Ok(Replayer {
            store: DocumentStore::open(store_dir).map_err(|e| e.to_string())?,
            cache: QueryCache::new(SERVER_CACHE),
            compiler: Compiler::new().threads(1),
            cancel: Arc::new(AtomicBool::new(false)),
            stale: HashSet::new(),
            kernels: KernelCounts::default(),
            memo_hits: 0,
            memo_misses: 0,
            pos: start,
            sent: 0,
            republish,
            tally: Tally::default(),
        })
    }

    /// Replay connection 0's stream for `seconds` on this thread,
    /// checking each answer against `expected`. Returns the requests
    /// replayed and the time taken.
    fn run_for(
        &mut self,
        tr: &mut Tracer,
        s: &Setup,
        expected: &[u64],
        seconds: f64,
    ) -> Result<(u64, Duration), String> {
        let stream = &s.inputs.streams[0];
        let want = Duration::from_secs_f64(seconds);
        let began = Instant::now();
        let mut n = 0;
        while began.elapsed() < want {
            let idx = stream[self.pos % stream.len()];
            self.pos += 1;
            let outcome = self.request(tr, s.inputs.lines[idx as usize].text.trim_end());
            self.tally.record(expected, idx, outcome);
            n += 1;
            self.sent += 1;
            if let Some(seed) = self.republish {
                if self.sent.is_multiple_of(REPUBLISH_EVERY) {
                    let j = republish_target(seed, self.sent / REPUBLISH_EVERY - 1, s.docs.len());
                    self.publish(tr, &s.inputs.names[j], &s.docs[j])?;
                }
            }
        }
        Ok((n, began.elapsed()))
    }

    fn publish(&mut self, tr: &mut Tracer, name: &str, doc: &Document) -> Result<(), String> {
        let span = tr.root("publish", Kind::Aux);
        let r = self.store.publish(name, doc);
        tr.exit(span);
        r.map_err(|e| e.to_string())?;
        self.stale.insert(name.to_owned());
        Ok(())
    }

    #[allow(clippy::too_many_lines)]
    fn request(&mut self, tr: &mut Tracer, line: &str) -> Outcome {
        let root = tr.root("req", Kind::Op);
        let span = tr.enter("serve.json_parse");
        let req = Json::parse(line);
        tr.exit(span);
        let Ok(req) = req else {
            tr.exit(root);
            return Outcome::Failed;
        };
        let texts: Vec<&str> = match (req.get("query"), req.get("queries")) {
            (Some(q), _) => q.as_str().into_iter().collect(),
            (None, Some(qs)) => {
                qs.as_arr().unwrap_or(&[]).iter().filter_map(Json::as_str).collect()
            }
            (None, None) => Vec::new(),
        };
        let name = req.get("doc").and_then(Json::as_str).unwrap_or("");
        let reopen = self.stale.remove(name);
        let span = tr.enter(if reopen { "store.reopen" } else { "store.open" });
        let doc = self.store.open_doc(name);
        tr.exit(span);
        let Ok(doc) = doc else {
            tr.exit(root);
            return Outcome::Failed;
        };
        let span = tr.enter("cache.lookup");
        let fingerprint = self.compiler.options_fingerprint();
        let mut compiled = Vec::with_capacity(texts.len());
        for text in &texts {
            compiled.push(self.cache.get_or_insert_with(&fingerprint, text, || {
                let span = tr.enter("compile");
                let q = self.compiler.compile(text);
                tr.exit(span);
                q
            }));
        }
        tr.exit(span);
        let budget = EvalBudget::unlimited().with_cancel(Arc::clone(&self.cancel));
        let ok: Vec<Arc<CompiledQuery>> =
            compiled.iter().filter_map(|r| r.as_ref().ok().cloned()).collect();
        let tallies_before: Vec<KernelCounts> = ok.iter().map(|q| q.planner_stats()).collect();
        let mut batch_kernels = KernelCounts::default();
        let t = Instant::now();
        let results: Vec<Result<Value, String>> = if ok.len() >= 2 {
            let span = tr.enter("batch.eval");
            let mut builder = QuerySetBuilder::with_compiler(self.compiler.clone()).threads(1);
            for q in &ok {
                builder = builder.compiled(Arc::clone(q));
            }
            let out = match builder.build() {
                Ok(set) => {
                    let result = set.evaluate_all_with(&doc, Context::of(doc.root()), &budget);
                    self.memo_hits += result.stats().memo_hits;
                    self.memo_misses += result.stats().memo_misses;
                    batch_kernels = set.planner_stats();
                    result
                        .into_results()
                        .into_iter()
                        .map(|r| r.map_err(|e| e.to_string()))
                        .collect()
                }
                Err(e) => vec![Err(e.to_string()); ok.len()],
            };
            tr.exit(span);
            out
        } else {
            ok.iter()
                .map(|q| {
                    let span = tr.enter(layers::eval_span(q.strategy()));
                    let r = q.evaluate_with(&doc, Context::of(doc.root()), &budget);
                    tr.exit(span);
                    r.map_err(|e| e.to_string())
                })
                .collect()
        };
        let elapsed_us = u64::try_from(t.elapsed().as_micros()).unwrap_or(u64::MAX);
        let span = tr.enter("value.materialize");
        let failed = compiled.len() != ok.len() || results.iter().any(Result::is_err);
        let rendered: Vec<Json> = results
            .iter()
            .filter_map(|r| r.as_ref().ok())
            .map(|v| render_result(&doc, v))
            .collect();
        tr.exit(span);
        let span = tr.enter("serve.render");
        let response = Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("doc", Json::Str(name.to_owned())),
            ("results", Json::Arr(rendered)),
            ("elapsed_us", Json::num(elapsed_us)),
        ])
        .render();
        tr.exit(span);
        tr.exit(root);
        // Only this thread evaluates these handles, so the deltas are
        // exactly this request's kernel picks.
        for (q, before) in ok.iter().zip(tallies_before) {
            self.kernels = self.kernels.plus(layers::kernels_minus(q.planner_stats(), before));
        }
        self.kernels = self.kernels.plus(batch_kernels);
        if failed {
            Outcome::Failed
        } else {
            classify_response(&response)
        }
    }
}

/// Reference answers: every request line evaluated with
/// `Strategy::TopDown` on a fresh parse of its document, rendered like
/// the server renders it. Indexed by request index.
fn oracle(inputs: &Inputs) -> Result<Vec<u64>, String> {
    let docs = inputs
        .xml
        .iter()
        .map(|x| Document::parse_str(x).map_err(|e| format!("oracle parse: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    let compiler = Compiler::new().default_strategy(Strategy::TopDown);
    let mut compiled: HashMap<&str, CompiledQuery> = HashMap::new();
    let mut out = Vec::with_capacity(inputs.lines.len());
    for line in &inputs.lines {
        let doc = &docs[line.doc];
        let mut results = Vec::with_capacity(line.queries.len());
        for q in &line.queries {
            if !compiled.contains_key(q.as_str()) {
                let c = compiler.compile(q).map_err(|e| format!("oracle compile {q}: {e}"))?;
                compiled.insert(q.as_str(), c);
            }
            let v = compiled[q.as_str()]
                .evaluate_root(doc)
                .map_err(|e| format!("oracle eval {q}: {e}"))?;
            results.push(render_result(doc, &v));
        }
        out.push(str_digest(&Json::Arr(results).render()));
    }
    Ok(out)
}

/// Pool and admission figures from the server's `op:stats`.
fn server_stats(sock: &Path) -> Result<(f64, f64), String> {
    let mut conn = Conn::connect(sock)?;
    let text = conn.send("{\"op\":\"stats\"}\n").ok_or("stats request failed")?.to_owned();
    let json = Json::parse(&text)?;
    let stats = json.get("stats").ok_or("no stats block")?;
    let field = |block: &str, key: &str| {
        stats
            .get(block)
            .and_then(|b| b.get(key))
            .and_then(Json::as_f64)
            .ok_or(format!("stats.{block}.{key}"))
    };
    Ok((field("pool", "peak_in_use")?, field("server", "overloaded")?))
}

fn p50_us(latencies_ns: &[u32]) -> f64 {
    let mut v = latencies_ns.to_vec();
    v.sort_unstable();
    if v.is_empty() {
        0.0
    } else {
        #[allow(clippy::cast_precision_loss)]
        let p = stats::quantile(&v, 0.5) as f64 / 1e3;
        p
    }
}

/// Run a serve workload.
///
/// # Errors
/// A set-up failure (generator check, I/O, a failed warmup request).
#[allow(clippy::too_many_lines, clippy::cast_precision_loss)]
pub fn run(args: &Args, flavor: Flavor) -> Result<Report, String> {
    let mut setup_s = Vec::new();
    let mut parse_ms = Vec::new();
    let mut publish_ms = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let t = Instant::now();
        let s = setup(flavor, args.seed)?;
        setup_s.push(t.elapsed().as_secs_f64());
        parse_ms.push(s.parse_ms);
        publish_ms.push(s.publish_ms);
        last = Some(s);
    }
    let mut s = last.expect("at least one setup");
    let name = if flavor == Flavor::Hot { "serve-hot" } else { "serve-churn" };
    let sizes: Vec<usize> = s.docs.iter().map(Document::len).collect();
    let mut env = vec![
        ("workload", json_str(name)),
        ("seed", args.seed.to_string()),
        ("documents", sizes.len().to_string()),
        ("doc_nodes_total", sizes.iter().sum::<usize>().to_string()),
        ("doc_nodes_min", sizes.iter().min().copied().unwrap_or(0).to_string()),
        ("doc_nodes_max", sizes.iter().max().copied().unwrap_or(0).to_string()),
        ("request_lines", s.inputs.lines.len().to_string()),
        ("distinct_queries", s.inputs.texts.len().to_string()),
        ("connections", CONNECTIONS.to_string()),
        ("server_cache", SERVER_CACHE.to_string()),
        (
            "doc_fingerprint",
            format!(
                "\"{:016x}\"",
                s.docs.iter().fold(0u64, |h, d| splitmix64(h ^ gen::fingerprint(d)))
            ),
        ),
    ];
    let start = warm_len(flavor, s.inputs.lines.len());
    let seed = args.seed;
    // Reference answers, outside the window and outside set-up time.
    let expected = oracle(&s.inputs)?;
    let sockets: Vec<Transport<'_>> =
        std::mem::take(&mut s.conns).into_iter().map(Transport::Socket).collect();
    let publish_via_server = |k: u64| {
        let j = republish_target(seed, k, s.docs.len());
        s.server.store().publish(&s.inputs.names[j], &s.docs[j]).expect("republish");
    };
    let republish: Option<&(dyn Fn(u64) + Sync)> =
        if flavor == Flavor::Churn { Some(&publish_via_server) } else { None };

    let mut metrics = Vec::new();
    let mut tally;
    let mut trace_problem = None;
    if args.trace {
        let socket = drive(&s, &expected, sockets, start, args.seconds * 0.3, 1, republish);
        let (peak_in_use, overloaded) = server_stats(&s.sock)?;
        let handle_transports = (0..CONNECTIONS).map(|_| Transport::InProcess(&s.server)).collect();
        let handled =
            drive(&s, &expected, handle_transports, start, args.seconds * 0.2, 1, republish);
        // Untraced and traced replay slices alternate, so drift over the
        // run does not bias the overhead ratio; layer counts cover the
        // traced slices only.
        let republish_seed = (flavor == Flavor::Churn).then_some(seed);
        let mut rp = Replayer::new(&s.dir.path().join("store"), start, republish_seed)?;
        let mut tr = Tracer::new(false);
        let (mut rate_off, mut rate_on) = ((0u64, Duration::ZERO), (0u64, Duration::ZERO));
        let (mut hits, mut lookups, mut evictions, mut reloads) = (0, 0, 0, 0);
        let (mut k, mut memo_hits, mut memo_misses) = (KernelCounts::default(), 0, 0);
        for slice in 0..TRACE_SLICES {
            let on = slice % 2 == 1;
            tr.set_on(on);
            let (cb, sb, kb) = (rp.cache.stats(), rp.store.stats(), rp.kernels);
            let (mb, mmb) = (rp.memo_hits, rp.memo_misses);
            let seconds = args.seconds * 0.4 / TRACE_SLICES as f64;
            let (n, t) = rp.run_for(&mut tr, &s, &expected, seconds)?;
            let rate = if on { &mut rate_on } else { &mut rate_off };
            rate.0 += n;
            rate.1 += t;
            if on {
                let (ca, sa) = (rp.cache.stats(), rp.store.stats());
                hits += ca.hits - cb.hits;
                lookups += ca.hits + ca.misses - cb.hits - cb.misses;
                evictions += ca.evictions - cb.evictions;
                reloads += sa.reloads - sb.reloads;
                k = k.plus(layers::kernels_minus(rp.kernels, kb));
                memo_hits += rp.memo_hits - mb;
                memo_misses += rp.memo_misses - mmb;
            }
        }
        let prof = Profile::of(tr.spans());
        let probe_texts: Vec<&str> = s.inputs.texts.iter().take(256).map(String::as_str).collect();
        let (parse_us, build_us) = layers::compile_probe(&probe_texts, 1)?;
        let coverage = prof.coverage();
        if let Err(e) = trace::check_coverage(coverage) {
            trace_problem = Some(e);
        }
        let ops = rate_on.0;
        let evals: Vec<f64> = ["eval.core", "eval.optmin", "eval.other"]
            .iter()
            .flat_map(|n| prof.layer(n).durations_ns)
            .map(|d| d as f64 / 1e3)
            .collect();
        let handle_p50 = p50_us(&handled.latencies_ns);
        let rate = |(n, t): (u64, Duration)| n as f64 / t.as_secs_f64();
        metrics.extend(layers::metrics(&layers::Layers {
            xml_parse_ms: stats::median(&parse_ms),
            store_publish_ms: stats::median(&publish_ms),
            store_open_us: prof.layer("store.open").mean(1e3),
            store_reopen_us: prof.layer("store.reopen").median(1e3),
            store_reloads: reloads as f64,
            syntax_parse_us: parse_us,
            plan_build_us: build_us,
            cache_lookup_us: prof.layer("cache.lookup").mean(1e3),
            cache_hit_ratio: layers::ratio(hits, lookups),
            cache_evictions: evictions as f64,
            eval_core_ms: prof.layer("eval.core").mean(1e6),
            eval_optmin_ms: prof.layer("eval.optmin").mean(1e6),
            eval_lazy_us: 0.0,
            eval_fixed_us: stats::median(&evals),
            axes_kernel_ms: 0.0,
            node_test_filter_ms: 0.0,
            kernels_per_op: layers::kernels_per_op(k, ops),
            batch_eval_ms: prof.layer("batch.eval").mean(1e6),
            batch_memo_hit_ratio: layers::ratio(memo_hits, memo_hits + memo_misses),
            value_materialize_us: prof.layer("value.materialize").mean(1e3),
            serve_json_parse_us: prof.layer("serve.json_parse").mean(1e3),
            serve_render_us: prof.layer("serve.render").mean(1e3),
            serve_handle_us: handle_p50,
            serve_socket_us: p50_us(&socket.latencies_ns) - handle_p50,
            pool_peak_in_use: peak_in_use,
            serve_overloaded: overloaded,
            coverage,
            overhead_ratio: rate(rate_on) / rate(rate_off),
            error_rate: 0.0,
        }));
        crate::write_trace(name, seed, tr.spans());
        tally = socket.tally;
        tally.merge(handled.tally);
        tally.merge(std::mem::take(&mut rp.tally));
    } else {
        let steal = sys::steal_ticks();
        let w =
            drive(&s, &expected, sockets, start, args.seconds, stats::ops_needed(0.99), republish);
        env.push(("host_steal_ticks", sys::ticks_since(steal)));
        let peak = sys::peak_rss_mb();
        stats::check_tail(w.latencies_ns.len(), 0.99)?;
        env.push(("latency_samples", w.latencies_ns.len().to_string()));
        let mut lat = w.latencies_ns.clone();
        lat.sort_unstable();
        metrics.extend(crate::end_to_end(
            stats::median(&setup_s),
            w.tally.attempted as f64 / w.elapsed.as_secs_f64(),
            stats::quantile(&lat, 0.5) as f64 / 1e6,
            stats::quantile(&lat, 0.99) as f64 / 1e6,
            peak,
        ));
        tally = w.tally;
    }
    drop(s);
    Ok(crate::finish(&tally, trace_problem, metrics, env))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        for flavor in [Flavor::Hot, Flavor::Churn] {
            let (a, da, _) = inputs(flavor, 5).unwrap();
            let (b, db, _) = inputs(flavor, 5).unwrap();
            let fa: Vec<u64> = da.iter().map(gen::fingerprint).collect();
            let fb: Vec<u64> = db.iter().map(gen::fingerprint).collect();
            assert_eq!(fa, fb);
            let la: Vec<&str> = a.lines.iter().map(|l| l.text.as_str()).collect();
            let lb: Vec<&str> = b.lines.iter().map(|l| l.text.as_str()).collect();
            assert_eq!(la, lb);
            assert_eq!(a.streams, b.streams);
            let (c, _, _) = inputs(flavor, 6).unwrap();
            let order = |i: &Inputs| {
                i.streams[0].iter().map(|&k| i.lines[k as usize].text.clone()).collect::<Vec<_>>()
            };
            assert_ne!(order(&a), order(&c));
        }
    }

    #[test]
    fn churn_has_ten_times_more_texts_than_the_cache() {
        let (inputs, docs, _) = inputs(Flavor::Churn, 3).unwrap();
        assert!(inputs.texts.len() >= 10 * SERVER_CACHE);
        assert_eq!(docs.len(), CHURN_DOCS);
        assert!(docs.iter().all(|d| (100..=300).contains(&d.len())));
    }
}
