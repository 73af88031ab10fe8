//! The daemon's crash-safe job journal.
//!
//! An append-only NDJSON file (`serve.journal`) in the serve directory,
//! one checksummed record per line:
//!
//! ```text
//! bbj1 <fnv64-hex> <json>
//! ```
//!
//! where the FNV-64 covers the JSON bytes. Records are `submit` (job id,
//! priority, full spec), `done` and `cancel`; the pending queue at any
//! instant is exactly the submits without a matching done/cancel, so a
//! killed daemon re-materializes its queue on restart by replaying the
//! file. Appends are flushed and fsynced before the client sees the
//! submit reply — an acknowledged job survives SIGKILL.
//!
//! Decoding is total, in the bb-persist spirit: a bad magic, checksum
//! mismatch, unparseable JSON or torn final line (the `journal-write`
//! fault aborts mid-append) ends the replay at that record; everything
//! before it is trusted, everything after recomputes as fresh submits.

use crate::spec::JobSpec;
use bb_lts::snapshot::fnv1a;
use bb_obs::json::{parse, JsonValue};
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Journal file name inside the serve directory.
pub const JOURNAL_FILE: &str = "serve.journal";

/// Line magic; bump on any record-format change.
const MAGIC: &str = "bbj1";

/// Append handle to a serve journal.
#[derive(Debug)]
pub struct Journal {
    file: Mutex<File>,
}

/// One replayed journal record.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// A job entered the queue.
    Submit {
        /// Daemon-assigned job id.
        job: u64,
        /// Scheduling priority.
        priority: i64,
        /// The full job spec.
        spec: JobSpec,
    },
    /// The job left the queue with a result.
    Done {
        /// Job id.
        job: u64,
    },
    /// The job was cancelled while queued.
    Cancel {
        /// Job id.
        job: u64,
    },
}

/// The queue state recovered from a journal replay.
#[derive(Debug, Default)]
pub struct Replay {
    /// Unfinished submits in submission order.
    pub pending: Vec<(u64, i64, JobSpec)>,
    /// One past the highest job id seen (the restart's first fresh id).
    pub next_id: u64,
    /// Journal records decoded by the replay (submits + dones + cancels),
    /// reported by `stats` so operators can see restart provenance.
    pub records: u64,
}

impl Journal {
    /// Opens (appending) the journal in `dir`, creating it if missing.
    pub fn open(dir: &Path) -> io::Result<Journal> {
        std::fs::create_dir_all(dir)?;
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(Self::path(dir))?;
        Ok(Journal {
            file: Mutex::new(file),
        })
    }

    /// The journal path inside `dir`.
    pub fn path(dir: &Path) -> PathBuf {
        dir.join(JOURNAL_FILE)
    }

    /// Appends one record and makes it durable (flush + fsync) before
    /// returning. The `journal-write` fault tears the line mid-append and
    /// aborts, modelling a crash with a half-written tail.
    fn append(&self, json: &str) -> io::Result<()> {
        let mut line = String::with_capacity(json.len() + 24);
        let _ = writeln!(line, "{MAGIC} {:016x} {json}", fnv1a(0, json.as_bytes()));
        let mut f = self.file.lock().unwrap_or_else(|e| e.into_inner());
        if bb_obs::fault::enabled() && bb_obs::fault::hit("journal-write") {
            let torn = &line.as_bytes()[..line.len() / 2];
            let _ = f.write_all(torn);
            let _ = f.flush();
            let _ = f.sync_data();
            std::process::abort();
        }
        let start = std::time::Instant::now();
        f.write_all(line.as_bytes())?;
        f.flush()?;
        let out = f.sync_data();
        bb_obs::hot::JOURNAL_FSYNC_US.record(start.elapsed().as_micros() as u64);
        out
    }

    /// Records a job admission. Must complete before the submit reply.
    pub fn record_submit(&self, job: u64, priority: i64, spec: &JobSpec) -> io::Result<()> {
        self.append(&format!(
            "{{\"t\": \"submit\", \"job\": {job}, \"priority\": {priority}, \"spec\": {}}}",
            spec.to_json()
        ))
    }

    /// Records a job completion (any exit code).
    pub fn record_done(&self, job: u64) -> io::Result<()> {
        self.append(&format!("{{\"t\": \"done\", \"job\": {job}}}"))
    }

    /// Records a queued-job cancellation.
    pub fn record_cancel(&self, job: u64) -> io::Result<()> {
        self.append(&format!("{{\"t\": \"cancel\", \"job\": {job}}}"))
    }
}

/// Decodes one journal line; `None` ends the replay (torn or corrupt).
fn decode_line(line: &str) -> Option<Record> {
    let rest = line.strip_prefix(MAGIC)?.strip_prefix(' ')?;
    let (sum_hex, json) = rest.split_once(' ')?;
    let sum = u64::from_str_radix(sum_hex, 16).ok()?;
    if sum != fnv1a(0, json.as_bytes()) {
        return None;
    }
    let v = parse(json).ok()?;
    let job = v.get("job").and_then(JsonValue::as_u64)?;
    match v.get("t").and_then(JsonValue::as_str)? {
        "submit" => {
            let priority = match v.get("priority") {
                Some(JsonValue::Num(n)) if n.fract() == 0.0 => *n as i64,
                _ => return None,
            };
            let spec = JobSpec::from_json(v.get("spec")?).ok()?;
            Some(Record::Submit { job, priority, spec })
        }
        "done" => Some(Record::Done { job }),
        "cancel" => Some(Record::Cancel { job }),
        _ => None,
    }
}

/// Replays the journal in `dir` (missing file = empty replay). Stops at
/// the first undecodable record — everything after a torn line is
/// unreachable anyway, because appends are sequential and fsynced.
pub fn replay(dir: &Path) -> Replay {
    let mut out = Replay { pending: Vec::new(), next_id: 1, records: 0 };
    let Ok(text) = std::fs::read_to_string(Journal::path(dir)) else {
        return out;
    };
    for line in text.lines() {
        let Some(rec) = decode_line(line) else {
            bb_obs::diag!("serve: journal replay stopped at a torn/corrupt record");
            break;
        };
        out.records += 1;
        match rec {
            Record::Submit { job, priority, spec } => {
                out.next_id = out.next_id.max(job + 1);
                out.pending.push((job, priority, spec));
            }
            Record::Done { job } | Record::Cancel { job } => {
                out.next_id = out.next_id.max(job + 1);
                out.pending.retain(|(j, _, _)| *j != job);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("bb-journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn spec(alg: &str) -> JobSpec {
        JobSpec { algorithm: alg.into(), ..JobSpec::default() }
    }

    #[test]
    fn replay_recovers_pending_in_submit_order() {
        let d = dir("order");
        let j = Journal::open(&d).unwrap();
        j.record_submit(1, 0, &spec("treiber")).unwrap();
        j.record_submit(2, 5, &spec("ms-queue")).unwrap();
        j.record_submit(3, 0, &spec("ccas")).unwrap();
        j.record_done(1).unwrap();
        j.record_cancel(3).unwrap();
        let r = replay(&d);
        assert_eq!(r.next_id, 4);
        assert_eq!(r.records, 5, "three submits + done + cancel all decode");
        assert_eq!(r.pending.len(), 1);
        assert_eq!(r.pending[0].0, 2);
        assert_eq!(r.pending[0].1, 5);
        assert_eq!(r.pending[0].2.algorithm, "ms-queue");
        let _ = std::fs::remove_dir_all(&d);
    }

    /// A submit record exactly as an earlier release wrote it — its spec
    /// carries the retired `refine` and `fuse` members — still replays,
    /// to the spec (and cache key) a current submit of the same job has.
    #[test]
    fn parent_format_submit_replays() {
        let d = dir("parent");
        std::fs::create_dir_all(&d).unwrap();
        let json = r#"{"t": "submit", "job": 7, "priority": 0, "spec": {"command": "verify", "algorithm": "treiber", "threads": 2, "ops": 2, "domain": [1, 2], "lock_freedom": true, "refine": "incremental", "reduce": "none", "jobs": 2, "fuse": true}}"#;
        let line = format!("{MAGIC} {:016x} {json}\n", fnv1a(0, json.as_bytes()));
        std::fs::write(Journal::path(&d), line).unwrap();
        let r = replay(&d);
        assert_eq!(r.records, 1);
        assert_eq!(r.pending.len(), 1);
        let current = JobSpec { jobs: bb_lts::Jobs::new(2), ..spec("treiber") };
        assert_eq!(r.pending[0].2, current);
        assert_eq!(r.pending[0].2.cache_key(), current.cache_key());
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn missing_journal_is_an_empty_replay() {
        let r = replay(Path::new("/nonexistent/serve-journal-test"));
        assert!(r.pending.is_empty());
        assert_eq!(r.next_id, 1);
    }

    #[test]
    fn torn_tail_ends_the_replay_without_losing_the_prefix() {
        let d = dir("torn");
        let j = Journal::open(&d).unwrap();
        j.record_submit(1, 0, &spec("treiber")).unwrap();
        j.record_submit(2, 0, &spec("ms-queue")).unwrap();
        // A crash mid-append leaves a half line with no newline.
        let mut f = OpenOptions::new().append(true).open(Journal::path(&d)).unwrap();
        f.write_all(b"bbj1 00ff00ff00ff00ff {\"t\": \"do").unwrap();
        drop(f);
        let r = replay(&d);
        assert_eq!(r.pending.len(), 2, "both acknowledged submits survive");
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn corrupt_checksum_ends_the_replay() {
        let d = dir("sum");
        let j = Journal::open(&d).unwrap();
        j.record_submit(1, 0, &spec("treiber")).unwrap();
        j.record_done(1).unwrap();
        let mut text = std::fs::read_to_string(Journal::path(&d)).unwrap();
        // Flip a byte inside the second record's JSON payload.
        let flip = text.rfind("done").unwrap();
        text.replace_range(flip..flip + 4, "dxne");
        std::fs::write(Journal::path(&d), &text).unwrap();
        let r = replay(&d);
        assert_eq!(r.pending.len(), 1, "the done record must not be trusted");
        let _ = std::fs::remove_dir_all(&d);
    }
}
