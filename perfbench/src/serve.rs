//! `serve_closed`: the daemon (`repro serve`) is the system under test.
//! One closed-loop client submits, watches and fetches results through
//! `llc_serve::Client` — the `repro submit --watch` path — over a fixed
//! seeded sequence of cold specs, warm specs, exact duplicates and live
//! session batch uploads replaying the checked-in sample trace.

use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use llc_ingest::{IngestFormat, IngestSource};
use llc_serve::client::job_id_of;
use llc_serve::sessions::DEFAULT_SESSION_WINDOW;
use llc_serve::{Client, JobSpec, RetryPolicy};
use llc_sharing::json::{table_from_json, Value};
use llc_sharing::{ExperimentId, OnlineCharacterizer};
use llc_sim::{MemAccess, MAX_CORES};
use llc_trace::{App, TraceSource};

use crate::stat::{self, Rng};
use crate::{host, Args, Report};

/// Apps that get a round, in the order rounds are added as `--seconds`
/// grows; the first [`rounds`] of them are then shuffled by the seed.
pub const APPS: [App; 16] = [
    App::Fft,
    App::Swaptions,
    App::Dedup,
    App::Bodytrack,
    App::Canneal,
    App::Blackscholes,
    App::Streamcluster,
    App::Ferret,
    App::Fluidanimate,
    App::Barnes,
    App::Ocean,
    App::Radix,
    App::Water,
    App::Equake,
    App::Mgrid,
    App::Swim,
];

/// The cold spec of each round: the first job to touch its app.
pub const COLD: ExperimentId = ExperimentId::Fig7;
/// The warm specs of each round: other pure-stats experiments reusing
/// the stream and annotations the cold job left behind.
pub const WARM: [ExperimentId; 2] = [ExperimentId::Fig8, ExperimentId::Abl3];
/// Exact re-submissions of completed specs per round: the fewest that
/// give the 13 rounds of a 45 s run at least 100 duplicates, so their
/// p90 has ten samples beyond it (see [`Report::percentile`]).
pub const DUPS_PER_ROUND: usize = 8;
/// Session batch uploads per round: the fewest that give a 45 s run at
/// least 20 batches, so their p50 has ten samples beyond it.
pub const BATCHES_PER_ROUND: usize = 2;
/// Throwaway daemons started and stopped after each round, so `setup_s`
/// is the median of many start-ups spread over the same host periods as
/// the rounds. They share one spare store, so all but the first restart
/// over an existing store: creating a fresh store's directories costs
/// ext4 journal time that varies with the disk's state far more than
/// the daemon's own start-up does.
const STARTUPS_PER_ROUND: usize = 5;
/// The checked-in ChampSim-style sample trace whose accesses the live
/// session replays.
const SAMPLE_TRACE: &[u8] = include_bytes!("../../examples/traces/sample.csv");
/// Wall seconds one round takes on the reference host; sizes the
/// sequence so a run measures about `--seconds`.
const ROUND_S: f64 = 3.5;
/// Ceiling on one job from submit to result.
const JOB_DEADLINE: Duration = Duration::from_secs(120);

/// Number of rounds a run of `seconds` makes.
pub fn rounds(seconds: f64) -> usize {
    ((seconds / ROUND_S).round() as usize).clamp(2, APPS.len())
}

/// A running daemon child process.
pub struct Daemon {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
    pub pid: String,
}

impl Daemon {
    /// Spawns `repro serve` over a fresh `store` with one worker per
    /// core and returns it once `/healthz` answers, with the seconds
    /// from spawn to the daemon's `listening on` line. The first
    /// `/healthz` answer also waits out whatever is left of one 10 ms
    /// accept-loop sleep, a race that reads either about 3 ms or about
    /// 13 ms, so set-up ends where the socket is bound and announced.
    pub fn start(store: &Path) -> Result<(Daemon, f64), String> {
        let exe = std::env::current_exe().map_err(|e| format!("locating own binary: {e}"))?;
        let start = Instant::now();
        let mut child = Command::new(exe)
            .args(["__serve", "serve", "--listen", "127.0.0.1:0", "--store"])
            .arg(store)
            .args(["--jobs", &host::nproc().to_string()])
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning the daemon: {e}"))?;
        let pid = child.id().to_string();
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match stdout.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("daemon exited before listening".into());
                }
                Ok(_) => {}
            }
            if let Some(rest) = line.split("listening on ").nth(1) {
                break rest.split_whitespace().next().unwrap_or("").to_string();
            }
        };
        let listening = start.elapsed().as_secs_f64();
        let daemon = Daemon {
            child,
            _stdout: stdout,
            addr,
            pid,
        };
        let client = daemon.client();
        while !matches!(client.request_text("GET", "/healthz", None), Ok((200, _))) {
            if start.elapsed() > Duration::from_secs(30) {
                return Err("daemon never answered /healthz".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok((daemon, listening))
    }

    /// A fail-fast client: a refusal or error is a failed operation,
    /// never silently retried.
    pub fn client(&self) -> Client {
        Client::new(self.addr.clone()).with_retry(RetryPolicy::none())
    }

    /// Asks the daemon to drain and waits until it has exited.
    pub fn stop(mut self) {
        let _ = self.client().shutdown();
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Child side (`__serve serve …`): the `repro serve` entry point.
pub fn child_main(args: &[String]) -> i32 {
    let command = match llc_serve::cli::parse(args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return 2;
        }
    };
    match llc_serve::cli::run(&command) {
        Ok(_) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}

/// One step of the client's sequence.
#[derive(Debug, Clone, Copy)]
enum Step {
    Job(ExperimentId, App, Class),
    Dup,
    Batch,
}

/// Job classes, by what the daemon has cached when the job arrives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Cold,
    Warm,
    Dup,
}

/// The seeded steps of one round for `app`: the cold spec first, then
/// the warm specs, duplicates and batches in a seeded interleaving.
fn round_steps(app: App, rng: &mut Rng) -> Vec<Step> {
    let mut rest: Vec<Step> = WARM
        .iter()
        .map(|&e| Step::Job(e, app, Class::Warm))
        .collect();
    rest.extend(std::iter::repeat_n(Step::Dup, DUPS_PER_ROUND));
    rest.extend(std::iter::repeat_n(Step::Batch, BATCHES_PER_ROUND));
    rng.shuffle(&mut rest);
    let mut steps = vec![Step::Job(COLD, app, Class::Cold)];
    steps.extend(rest);
    steps
}

/// What the traced client collects beside the untraced numbers.
#[derive(Default)]
pub struct Trace {
    pub plan_ms: Vec<f64>,
    pub node_hits: HashMap<String, f64>,
    pub node_misses: HashMap<String, f64>,
    pub submit_ms: Vec<f64>,
    pub queue_wait_ms: Vec<f64>,
    pub run_ms: Vec<f64>,
    pub watch_lag_ms: Vec<f64>,
    pub batch_server_ms: Vec<f64>,
    pub online_ns_per_access: Vec<f64>,
}

/// The closed-loop client and everything it measured.
pub struct ClosedLoop {
    client: Client,
    rng: Rng,
    /// The sample trace's accesses and the number of cores they use.
    sample: (Vec<MemAccess>, usize),
    session: Option<(String, OnlineCharacterizer)>,
    /// Completed specs with their result tables as rendered JSON.
    completed: Vec<(JobSpec, String)>,
    pub latency_ms: BTreeMap<&'static str, Vec<f64>>,
    pub jobs: usize,
    pub trace: Option<Trace>,
}

/// Parses a Prometheus text exposition into `series → value`.
fn scrape(client: &Client) -> HashMap<String, f64> {
    let text = client.metrics().unwrap_or_default();
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (k, v) = l.rsplit_once(' ')?;
            Some((k.to_string(), v.parse().ok()?))
        })
        .collect()
}

/// `after[key] - before[key]`, missing series counting as zero.
fn delta(before: &HashMap<String, f64>, after: &HashMap<String, f64>, key: &str) -> f64 {
    after.get(key).copied().unwrap_or(0.0) - before.get(key).copied().unwrap_or(0.0)
}

const BATCH_ROUTE: &str = "{route=\"/sessions/{id}/batch\"}";

impl ClosedLoop {
    /// A client loop for `daemon`, seeded for its dup choices and batches.
    pub fn new(daemon: &Daemon, rng: Rng, traced: bool) -> Result<ClosedLoop, String> {
        Ok(ClosedLoop {
            client: daemon.client(),
            rng,
            sample: sample_trace()?,
            session: None,
            completed: Vec::new(),
            latency_ms: BTreeMap::new(),
            jobs: 0,
            trace: traced.then(Trace::default),
        })
    }

    /// Runs one round for `app`; returns its wall seconds.
    pub fn round(&mut self, app: App, report: &mut Report) -> f64 {
        let start = Instant::now();
        for step in round_steps(app, &mut self.rng) {
            let ok = match step {
                Step::Job(exp, app, class) => {
                    let mut spec = JobSpec::new(exp, "quick");
                    spec.apps = Some(vec![app]);
                    self.job(&spec, class, report)
                }
                Step::Dup if self.completed.is_empty() => false,
                Step::Dup => {
                    let pick = self.rng.below(self.completed.len());
                    let spec = self.completed[pick].0.clone();
                    self.job(&spec, Class::Dup, report)
                }
                Step::Batch => self.batch(),
            };
            report.op(ok);
        }
        start.elapsed().as_secs_f64()
    }

    /// Submits `spec`, watches it to a terminal state and fetches its
    /// result; `true` if the tables are the expected ones.
    fn job(&mut self, spec: &JobSpec, class: Class, report: &mut Report) -> bool {
        let before = self.trace.is_some().then(|| {
            self.plan(spec);
            scrape(&self.client)
        });
        let start = Instant::now();
        let outcome = (|| -> Result<(Value, f64, f64), String> {
            let doc = self.client.submit(spec).map_err(|e| e.to_string())?;
            let submitted = start.elapsed().as_secs_f64();
            let id = job_id_of(&doc).map_err(|e| e.to_string())?;
            let status = self
                .client
                .watch(id, JOB_DEADLINE)
                .map_err(|e| e.to_string())?;
            let seen_done = start.elapsed().as_secs_f64();
            match status.field("state").and_then(Value::as_str) {
                Some("done") => {}
                other => return Err(format!("job ended {other:?}")),
            }
            let result = self.client.result(id).map_err(|e| e.to_string())?;
            Ok((result, submitted, seen_done))
        })();
        let total_ms = start.elapsed().as_secs_f64() * 1e3;
        let (result, submitted, seen_done) = match outcome {
            Ok(o) => o,
            Err(e) => {
                eprintln!("serve {}: {e}", spec.summary());
                return false;
            }
        };
        let tables = result
            .field("tables")
            .map(Value::render)
            .unwrap_or_default();
        let ok = match class {
            Class::Dup => self
                .completed
                .iter()
                .any(|(s, t)| s == spec && *t == tables),
            Class::Cold | Class::Warm => {
                let key = format!("serve {} {}", spec.experiment, spec_app(spec));
                self.completed.push((spec.clone(), tables));
                result_digest(&result).is_some_and(|d| report.check(&key, d))
            }
        };
        let label = match class {
            Class::Cold => "cold",
            Class::Warm => "warm",
            Class::Dup => "dup",
        };
        self.latency_ms.entry(label).or_default().push(total_ms);
        self.jobs += 1;
        if let (Some(before), Some(_)) = (before, &self.trace) {
            let after = scrape(&self.client);
            let trace = self.trace.as_mut().expect("traced");
            trace.submit_ms.push(submitted * 1e3);
            if class != Class::Dup {
                let queued = delta(&before, &after, "llc_job_queue_wait_seconds_sum");
                let ran = delta(&before, &after, "llc_job_run_seconds_sum");
                trace.queue_wait_ms.push(queued * 1e3);
                trace.run_ms.push(ran * 1e3);
                trace
                    .watch_lag_ms
                    .push((seen_done - submitted - queued - ran) * 1e3);
            }
        }
        ok
    }

    /// Plans `spec` (traced runs only), tallying hit/miss nodes by kind.
    fn plan(&mut self, spec: &JobSpec) {
        let start = Instant::now();
        let Ok(doc) = self.client.plan(spec) else {
            return;
        };
        let trace = self.trace.as_mut().expect("traced");
        trace.plan_ms.push(start.elapsed().as_secs_f64() * 1e3);
        for node in doc.field("nodes").and_then(Value::as_array).unwrap_or(&[]) {
            let kind = node.field("kind").and_then(Value::as_str).unwrap_or("?");
            let tally = if node.field("hit") == Some(&Value::Bool(true)) {
                &mut trace.node_hits
            } else {
                &mut trace.node_misses
            };
            *tally.entry(kind.to_string()).or_default() += 1.0;
        }
    }

    /// Uploads one seeded batch to the live session (opened on first
    /// use, with the daemon's default window) and checks the answer
    /// against an in-process characterizer fed the same accesses.
    fn batch(&mut self) -> bool {
        if self.session.is_none() {
            let body = format!("{{\"cores\":{}}}", self.sample.1);
            let Some(id) = self
                .client
                .request("POST", "/sessions", Some(&body))
                .ok()
                .and_then(|doc| doc.field("id").and_then(Value::as_u64))
            else {
                eprintln!("serve: could not open a session");
                return false;
            };
            let local = OnlineCharacterizer::new(DEFAULT_SESSION_WINDOW);
            self.session = Some((id.to_string(), local));
        }
        let accesses = batch_accesses(&self.sample.0, &mut self.rng);
        let rows: Vec<String> = accesses
            .iter()
            .map(|a| {
                let (core, pc, addr) = (a.core.index(), a.pc.raw(), a.addr.raw());
                format!("[{core},{pc},{addr},\"{}\"]", a.kind)
            })
            .collect();
        let body = format!("{{\"accesses\":[{}]}}", rows.join(","));
        let before = self.trace.as_ref().map(|_| scrape(&self.client));
        let (id, local) = self.session.as_mut().expect("opened above");
        let path = format!("/sessions/{id}/batch");
        let start = Instant::now();
        let answer = self.client.request("POST", &path, Some(&body));
        let ms = start.elapsed().as_secs_f64() * 1e3;
        self.latency_ms.entry("batch").or_default().push(ms);
        let started = Instant::now();
        for a in &accesses {
            local.push(a.core, a.addr.block(), a.kind);
        }
        let online_ns = started.elapsed().as_secs_f64() * 1e9 / accesses.len() as f64;
        let expected = local.stats().tally;
        if let (Some(before), Some(trace)) = (before, self.trace.as_mut()) {
            let after = scrape(&self.client);
            let sum = delta(
                &before,
                &after,
                &format!("llc_http_request_seconds_sum{BATCH_ROUTE}"),
            );
            trace.batch_server_ms.push(sum * 1e3);
            trace.online_ns_per_access.push(online_ns);
        }
        let Ok(doc) = answer else {
            eprintln!(
                "serve: batch upload failed: {}",
                answer.err().map(|e| e.to_string()).unwrap_or_default()
            );
            return false;
        };
        let field = |k: &str| doc.field(k).and_then(Value::as_u64);
        field("accesses") == Some(expected.accesses)
            && field("reuses") == Some(expected.reuses)
            && field("shared_reuses") == Some(expected.shared_reuses)
            && field("private") == Some(expected.private_accesses)
            && field("ro_shared") == Some(expected.ro_shared_accesses)
            && field("rw_shared") == Some(expected.rw_shared_accesses)
    }
}

/// The single app of a round's spec.
fn spec_app(spec: &JobSpec) -> &'static str {
    spec.apps
        .as_ref()
        .and_then(|a| a.first())
        .map_or("?", |a| a.label())
}

/// Digest of a result document's tables, as the suite would render them.
fn result_digest(result: &Value) -> Option<u64> {
    let tables = result
        .field("tables")?
        .as_array()?
        .iter()
        .map(table_from_json)
        .collect::<Result<Vec<_>, _>>()
        .ok()?;
    Some(stat::tables_digest(&tables))
}

/// Decodes the sample trace; returns its accesses and the number of
/// cores they use.
fn sample_trace() -> Result<(Vec<MemAccess>, usize), String> {
    let mut source = IngestSource::open(IngestFormat::ChampsimCsv, SAMPLE_TRACE, MAX_CORES)
        .map_err(|e| format!("sample trace: {e}"))?;
    let mut accesses = Vec::new();
    while let Some(a) = source.next_access() {
        accesses.push(a);
    }
    if let Some(e) = source.take_error() {
        return Err(format!("sample trace: {e}"));
    }
    let cores = accesses.iter().map(|a| a.core.index() + 1).max();
    Ok((accesses, cores.ok_or("sample trace: no accesses")?))
}

/// One session batch: a whole cyclic pass over the sample trace from a
/// seeded start.
fn batch_accesses(sample: &[MemAccess], rng: &mut Rng) -> Vec<MemAccess> {
    let start = rng.below(sample.len());
    sample[start..]
        .iter()
        .chain(&sample[..start])
        .copied()
        .collect()
}

/// Runs the workload: a timed daemon start-up on a fresh store, then the
/// seeded rounds, each followed by [`STARTUPS_PER_ROUND`] more timed
/// start-ups of throwaway daemons.
pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let (daemon, first) = Daemon::start(&args.work_dir.join("store"))?;
    let mut setups = vec![first];
    let mut rng = Rng::new(args.seed, 3);
    let mut apps = APPS[..rounds(args.seconds)].to_vec();
    rng.shuffle(&mut apps);
    let mut client_loop = ClosedLoop::new(&daemon, rng, false)?;
    let (mut walls, mut cpus) = (Vec::new(), Vec::new());
    let spare_store = args.work_dir.join("spare");
    for app in apps {
        report.ref_ms.push(host::ref_ms());
        let cpu0 = host::cpu_s(&daemon.pid).unwrap_or(f64::NAN);
        walls.push(client_loop.round(app, report));
        cpus.push(host::cpu_s(&daemon.pid).unwrap_or(f64::NAN) - cpu0);
        for _ in 0..STARTUPS_PER_ROUND {
            let (spare, secs) = Daemon::start(&spare_store)?;
            spare.stop();
            setups.push(secs);
        }
    }
    let rss = host::peak_rss_mb(&daemon.pid).unwrap_or(f64::NAN);
    daemon.stop();
    let round_s: f64 = walls.iter().sum();
    report.samples("round_wall_s", &walls);
    report.samples("setup_s", &setups);
    for (class, lat) in &client_loop.latency_ms {
        report.samples(&format!("{class}_ms"), lat);
        let share = lat.iter().sum::<f64>() / 1e3 / round_s;
        report.summary(&format!("{class}_share_of_round"), Value::Num(share));
        report.percentile(&format!("{class}_p50_ms"), lat, 0.5);
        report.percentile(&format!("{class}_p90_ms"), lat, 0.9);
    }
    report.metric("wall_s", stat::median(&walls), "s");
    report.metric("cpu_s", stat::median(&cpus), "s");
    report.metric("peak_rss_mb", rss, "MiB");
    report.metric("setup_s", stat::median(&setups), "s");
    report.metric("jobs_per_s", client_loop.jobs as f64 / round_s, "1/s");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_start_cold_and_keep_their_mix() {
        let mut rng = Rng::new(1, 3);
        let steps = round_steps(App::Fft, &mut rng);
        assert!(matches!(steps[0], Step::Job(COLD, App::Fft, Class::Cold)));
        let dups = steps.iter().filter(|s| matches!(s, Step::Dup)).count();
        let batches = steps.iter().filter(|s| matches!(s, Step::Batch)).count();
        assert_eq!((dups, batches), (DUPS_PER_ROUND, BATCHES_PER_ROUND));
        assert_eq!(
            steps.len(),
            1 + WARM.len() + DUPS_PER_ROUND + BATCHES_PER_ROUND
        );
    }

    #[test]
    fn batches_are_seeded_passes_over_the_sample() {
        let (sample, cores) = sample_trace().unwrap();
        let a = batch_accesses(&sample, &mut Rng::new(5, 3));
        assert_eq!(a, batch_accesses(&sample, &mut Rng::new(5, 3)));
        assert_ne!(a, batch_accesses(&sample, &mut Rng::new(6, 3)));
        assert_eq!(a.len(), sample.len());
        assert!(a.iter().all(|x| x.core.index() < cores));
    }
}
