//! The `daemon` workload: an in-process codegend (`serve::spawn`, one
//! worker) driven by one line-protocol connection in a closed loop —
//! every caller waits for its reply — with `gen space=` jobs for the
//! population's spaces.

use crate::calib::{wall_ns, Speed};
use crate::common::{metric, peak_rss_mb, Outcome, Output};
use crate::library::{self, Input, Regime};
use crate::population;
use crate::stat::{geomean, median, quantile};
use crate::Args;
use codegenplus::{pad_statements, Statement};
use serve::{Config, Daemon, LogTarget};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Worker pool size. One connection sends the requests, so one request is
/// in flight at a time, on one CPU (see [`crate::affinity`]): on a
/// two-vCPU host, two callers and two workers measured the scheduler as
/// much as the daemon (round trips spread 20% between runs).
const WORKERS: usize = 1;
/// Set-up rounds; `setup_s` is the median of their wall time at reference
/// speed.
const SETUP_ROUNDS: usize = 4;
/// Timed passes at least.
const MIN_PASSES: u64 = 2;
/// Spaces sent between two rounds of reference jobs: a twentieth of a
/// second or so, so each chunk is calibrated by the host speed it met.
const CHUNK: usize = 100;
/// Library-side passes of the per-layer run.
const LAYER_PASSES: u64 = 2;

/// Largest reply body the caller accepts; generated code for the
/// population's spaces is a few KiB.
const MAX_BODY: usize = 1 << 24;

/// One daemon reply.
enum Reply {
    Ok {
        lines: u64,
        codegen_ns: f64,
        compile_ns: f64,
        body: String,
    },
    Err(String),
    Busy,
}

/// One line-protocol connection.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            reader: BufReader::new(writer.try_clone()?),
            writer,
        })
    }

    fn request(&mut self, line: &str) -> std::io::Result<Reply> {
        self.writer.write_all(line.as_bytes())?;
        let mut header = String::new();
        self.reader.read_line(&mut header)?;
        let field = |key: &str| {
            header
                .split_whitespace()
                .find_map(|tok| tok.strip_prefix(key)?.strip_prefix('='))
                .unwrap_or("")
        };
        if header.starts_with("ok ") {
            let bytes: usize = field("bytes").parse().map_err(bad)?;
            if bytes > MAX_BODY {
                return Err(bad(format!("reply body of {bytes} bytes")));
            }
            let mut body = vec![0; bytes];
            self.reader.read_exact(&mut body)?;
            Ok(Reply::Ok {
                lines: field("lines").parse().map_err(bad)?,
                codegen_ns: field("codegen_ns").parse().map_err(bad)?,
                compile_ns: field("compile_ns").parse().map_err(bad)?,
                body: String::from_utf8(body).map_err(bad)?,
            })
        } else if header.starts_with("err ") {
            let msg = header.split_once(" msg=").map_or("", |(_, m)| m.trim_end());
            Ok(Reply::Err(msg.to_owned()))
        } else if header.starts_with("busy ") {
            Ok(Reply::Busy)
        } else {
            Err(bad(format!("unexpected reply {header:?}")))
        }
    }
}

fn bad(e: impl std::fmt::Display) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
}

/// One reply with its round-trip time.
struct Sample {
    input: usize,
    rtt_ns: f64,
    reply: Reply,
}

impl Conn {
    /// One pass over `lines[range]` in a closed loop, each request waiting
    /// for the previous reply, ids tagged `tag`. Returns the samples and
    /// the pass's wall time.
    fn pass(
        &mut self,
        lines: &[String],
        range: Range<usize>,
        tag: &str,
    ) -> std::io::Result<(Vec<Sample>, f64)> {
        let t = Instant::now();
        let mut samples = Vec::with_capacity(range.len());
        for i in range {
            let sent = Instant::now();
            let reply = self.request(&format!("gen id={tag}-{i} {}\n", lines[i]))?;
            samples.push(Sample {
                input: i,
                rtt_ns: sent.elapsed().as_nanos() as f64,
                reply,
            });
        }
        Ok((samples, t.elapsed().as_nanos() as f64))
    }
}

/// The population rendered as requests, and the same spaces re-parsed
/// from that text the way the daemon parses them.
fn requests(population: &[Input], out: &mut Outcome) -> (Vec<String>, Vec<Input>) {
    let mut lines = Vec::with_capacity(population.len());
    let mut parsed = Vec::with_capacity(population.len());
    for input in population {
        let texts: Vec<String> = input
            .stmts
            .iter()
            .map(|s| s.domain.to_input_syntax())
            .collect();
        let mut stmts = Vec::with_capacity(texts.len());
        for (i, (text, orig)) in texts.iter().zip(&input.stmts).enumerate() {
            let set = omega::Set::parse(text);
            let same = set.as_ref().is_ok_and(|s| s.same_set(&orig.domain));
            out.check(same, || {
                format!("{}: {text:?} does not re-parse to the same set", input.name)
            });
            if let Ok(set) = set {
                stmts.push(Statement::new(format!("s{i}"), set));
            }
        }
        lines.push(format!("space={}", texts.join(" ; ")));
        parsed.push(Input {
            name: input.name.clone(),
            stmts: pad_statements(&stmts, 0),
            params: input.params.clone(),
        });
    }
    (lines, parsed)
}

/// Checks every reply against the library's output for the same space.
fn check(samples: &[Sample], refs: &[Output], out: &mut Outcome) {
    for s in samples {
        let ok = match (&s.reply, &refs[s.input]) {
            (Reply::Ok { body, .. }, Ok(expected)) => body == expected,
            (Reply::Err(msg), Err(expected)) => msg == expected,
            _ => false,
        };
        out.check(ok, || {
            format!("space {}: daemon reply differs from the library", s.input)
        });
    }
}

fn spawn(log: &Path) -> std::io::Result<Daemon> {
    serve::spawn(Config {
        jobs_addr: "127.0.0.1:0".to_owned(),
        http_addr: "127.0.0.1:0".to_owned(),
        workers: WORKERS,
        log: LogTarget::File(log.to_path_buf()),
        ..Config::default()
    })
}

/// `GET path` on the daemon's HTTP listener; returns the body.
fn http_get(addr: SocketAddr, path: &str) -> std::io::Result<String> {
    let mut s = TcpStream::connect(addr)?;
    s.set_read_timeout(Some(Duration::from_secs(30)))?;
    write!(
        s,
        "GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
    )?;
    let mut resp = String::new();
    s.read_to_string(&mut resp)?;
    Ok(resp
        .split_once("\r\n\r\n")
        .map_or(String::new(), |(_, b)| b.to_owned()))
}

/// Median `queue_ns` of the timed requests' reports in the request log.
fn queue_ms(log: &Path) -> f64 {
    let text = std::fs::read_to_string(log).unwrap_or_default();
    let queued: Vec<f64> = text
        .lines()
        .filter_map(|l| serve::json::parse(l).ok())
        .filter(|r| r.get("event").and_then(|e| e.as_str()) == Some("report"))
        .filter(|r| {
            r.get("id")
                .and_then(|e| e.as_str())
                .is_some_and(|id| id.starts_with("t-"))
        })
        .filter_map(|r| r.get("queue_ns").and_then(|q| q.as_u64()))
        .map(|q| q as f64)
        .collect();
    if queued.is_empty() {
        0.0
    } else {
        median(&queued) / 1e6
    }
}

/// Inclusive per-phase time over the reports `/debug/requests` holds.
fn debug_requests_split(body: &str) -> Vec<String> {
    let Ok(json) = serve::json::parse(body) else {
        return vec!["split daemon: /debug/requests did not parse".to_owned()];
    };
    let reports = json.as_arr().unwrap_or(&[]);
    let mut phases: std::collections::BTreeMap<String, f64> = Default::default();
    for r in reports {
        if let Some(serve::json::Json::Obj(p)) = r.get("phases") {
            for (name, ns) in p {
                *phases.entry(name.clone()).or_default() += ns.as_u64().unwrap_or(0) as f64;
            }
        }
    }
    let n = reports.len().max(1) as f64;
    let mut rows: Vec<(String, f64)> = phases.into_iter().map(|(k, v)| (k, v / n / 1e6)).collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    let mut lines = vec![format!(
        "split daemon /debug/requests: inclusive phase time per request over {} reports",
        reports.len()
    )];
    lines.extend(
        rows.iter()
            .map(|(k, ms)| format!("split   {k:<22} {ms:>10.4} ms")),
    );
    lines
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let dir = PathBuf::from(".perfbench-tmp").join(std::process::id().to_string());
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let result = measure(args, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(".perfbench-tmp");
    result
}

fn measure(args: &Args, dir: &Path) -> Result<Outcome, String> {
    let io = |e: std::io::Error| e.to_string();
    // Round trips cross threads: the daemon is timed, and calibrated, on
    // the wall clock.
    let mut out = Outcome {
        speed: Speed::new(wall_ns),
        ..Outcome::default()
    };
    let log = dir.join("requests.jsonl");
    let cpu = crate::affinity::pin_here();
    out.meta(
        "pinned_cpu",
        cpu.map_or("none".to_owned(), |c| c.to_string()),
    );
    let t = Instant::now();
    let daemon = spawn(&log).map_err(io)?;
    let mut conn = Conn::open(daemon.jobs_addr()).map_err(io)?;
    out.meta("daemon_start_s", t.elapsed().as_secs_f64());
    let mut setup = Vec::new();
    let mut reference = None;
    for _ in 0..SETUP_ROUNDS {
        out.speed.restart();
        omega::reset_sat_cache();
        let population = population::inputs(args.seed_base);
        let (lines, inputs) = requests(&population, &mut out);
        // The population workload checks these outputs against the
        // oracle; here the daemon's replies are checked against them.
        let (refs, totals) = population::check(&inputs, None, &mut out);
        for start in (0..lines.len()).step_by(CHUNK) {
            let range = start..lines.len().min(start + CHUNK);
            let (samples, _) = conn.pass(&lines, range, "w").map_err(io)?;
            check(&samples, &refs, &mut out);
            out.speed.lap();
        }
        setup.push(out.speed.laps_ns() / 1e9);
        reference = Some((lines, inputs, refs, totals));
    }
    let (lines, inputs, refs, totals) = reference.expect("at least one set-up round");

    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut rtt = vec![Vec::new(); lines.len()];
    let mut codegen = vec![Vec::new(); lines.len()];
    let mut compile = vec![Vec::new(); lines.len()];
    let (mut overhead, mut all_rtt) = (Vec::new(), Vec::new());
    let (mut wall, mut done, mut shed, mut passes) = (0.0, 0u64, 0u64, 0u64);
    let (mut code_lines, mut pass_lines) = (0u64, 0u64);
    let before = omega::stats::snapshot();
    while passes < MIN_PASSES || Instant::now() < deadline {
        for start in (0..lines.len()).step_by(CHUNK) {
            let range = start..lines.len().min(start + CHUNK);
            let (samples, w) = conn
                .pass(&lines, range, &format!("t-{passes}"))
                .map_err(io)?;
            check(&samples, &refs, &mut out);
            // The chunk's times at reference speed; serve.overhead_ms, a
            // per-layer metric, is scaled with the others at the end.
            out.speed.lap();
            let at_ref = |ns: f64| out.speed.at_reference(ns);
            wall += at_ref(w);
            for s in &samples {
                match &s.reply {
                    Reply::Ok {
                        lines,
                        codegen_ns,
                        compile_ns,
                        ..
                    } => {
                        codegen[s.input].push(at_ref(*codegen_ns));
                        compile[s.input].push(at_ref(*compile_ns));
                        overhead.push(s.rtt_ns - codegen_ns - compile_ns);
                        pass_lines += lines;
                    }
                    Reply::Err(_) => {}
                    Reply::Busy => shed += 1,
                }
                if !matches!(s.reply, Reply::Busy) {
                    done += 1;
                    rtt[s.input].push(at_ref(s.rtt_ns));
                    all_rtt.push(at_ref(s.rtt_ns));
                }
            }
        }
        code_lines = std::mem::take(&mut pass_lines);
        passes += 1;
    }
    let counts = crate::common::Counts(omega::stats::snapshot().delta(&before));
    let trace_body = if args.trace {
        Some(http_get(daemon.http_addr(), "/debug/requests").map_err(io)?)
    } else {
        None
    };
    // Closed before shutdown, so that its handler in the daemon ends.
    let _ = conn.writer.write_all(b"quit\n");
    drop(conn);
    daemon.shutdown();
    daemon.wait();

    let medians = |v: &[Vec<f64>]| -> Vec<f64> {
        v.iter()
            .filter(|s| !s.is_empty())
            .map(|s| median(s))
            .collect()
    };
    // Every request is one generation: both rates count completed requests
    // per second of timed wall time.
    let per_s = done as f64 / (wall / 1e9);
    out.e2e = vec![
        metric("setup_s", median(&setup), "s"),
        metric("gen_ms", geomean(&medians(&codegen)) / 1e6, "ms"),
        metric("gen_ms_tail", quantile(&medians(&codegen), 0.9) / 1e6, "ms"),
        metric("gen_per_s", per_s, "1/s"),
        metric("compile_us", geomean(&medians(&compile)) / 1e3, "us"),
        metric("req_ms", geomean(&medians(&rtt)) / 1e6, "ms"),
        metric("req_ms_tail", quantile(&all_rtt, 0.99) / 1e6, "ms"),
        metric("req_per_s", per_s, "1/s"),
        metric("code_lines", code_lines as f64, "lines"),
        metric("dyn_cost", totals.cost as f64, "cost"),
        metric("peak_rss_mb", peak_rss_mb(), "MiB"),
    ];

    out.meta(
        "inputs",
        format!(
            "difftest seeds {}..{} as gen space= requests ({} rejected as empty)",
            args.seed_base,
            args.seed_base + population::SPACES,
            totals.rejected
        ),
    );
    out.meta("loop", format!("closed, 1 connection, {WORKERS} workers"));
    out.meta("cache", "warm from the warm-up pass, never reset");
    out.meta("setup_rounds", SETUP_ROUNDS);
    out.meta("passes", passes);
    out.meta(
        "reps_per_input",
        rtt.iter().map(Vec::len).min().unwrap_or(0),
    );
    out.meta("req_ms_tail_samples", all_rtt.len());
    out.meta("gen_ms_tail_samples", medians(&codegen).len());
    out.layers.extend(counts.metrics(passes));
    out.layers
        .push(metric("polyir.exec_ms", totals.exec_ns / 1e6, "ms"));
    out.extra
        .push(metric("serve.queue_ms", queue_ms(&log), "ms"));
    out.extra
        .push(metric("serve.overhead_ms", median(&overhead) / 1e6, "ms"));
    out.extra.push(metric("serve.shed", shed as f64, "count"));
    if let Some(body) = trace_body {
        out.notes.extend(debug_requests_split(&body));
        // The solver and scanner split of the same spaces, library-side in
        // this process, with the caches reset per pass so the traced and
        // untraced passes count the same solver work.
        let timed = library::timed(
            &inputs,
            &refs,
            Regime::ColdPass,
            LAYER_PASSES,
            0.0,
            &mut out,
        );
        library::layers(
            "daemon spaces, library-side",
            &inputs,
            &refs,
            Regime::ColdPass,
            LAYER_PASSES,
            &timed,
            &mut out,
        );
    }
    Ok(out)
}
