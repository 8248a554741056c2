//! The serve wire protocol: line-delimited JSON requests and responses.
//!
//! Each request is one JSON object on one line (capped at
//! [`MAX_LINE_BYTES`]); each response is likewise one JSON object per
//! line. Parsing is total: any byte sequence maps to either a valid
//! [`Request`] or a structured [`ProtoError`] — never a panic — which is
//! what the seeded protocol fuzz test in `tests/protocol_fuzz.rs` locks
//! in.
//!
//! Request shapes (the `op` field selects the operation):
//!
//! ```json
//! {"op":"run","id":"r1","client":"alice","priority":10,"deadline_ms":500,"job":{"Run":{...}}}
//! {"op":"ping"}
//! {"op":"stats"}
//! {"op":"health"}
//! {"op":"ready"}
//! {"op":"cache-gc"}
//! {"op":"shutdown"}
//! ```
//!
//! The `job` payload is a serialized [`ExecJob`] — exactly the value the
//! batch `repro` harness executes, so server results are byte-identical
//! to direct execution by construction.

use cestim_pipeline::PipelineConfig;
use cestim_sim::{EstimatorSpec, ExecJob, RunConfig};
use serde::{Deserialize, Value};

/// Hard cap on one protocol line, in bytes. Longer lines are rejected
/// with an `oversized` error and the remainder of the line is discarded.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Machine-readable error category carried by [`ProtoError`] and the
/// `error` response's `code` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The line exceeded [`MAX_LINE_BYTES`].
    Oversized,
    /// The line was not valid UTF-8 or not valid JSON.
    Malformed,
    /// Valid JSON, but not a well-formed request object.
    BadRequest,
    /// A well-formed request whose job spec failed validation.
    InvalidSpec,
    /// The job panicked while executing.
    Execution,
    /// The request's deadline expired before a result was produced.
    Deadline,
}

impl ErrorCode {
    /// The stable wire string for this code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Oversized => "oversized",
            ErrorCode::Malformed => "malformed-json",
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::InvalidSpec => "invalid-spec",
            ErrorCode::Execution => "execution",
            ErrorCode::Deadline => "deadline-exceeded",
        }
    }
}

/// Rejection reason: the shard queue was full (backpressure).
pub const REASON_QUEUE_FULL: &str = "queue-full";
/// Rejection reason: the server is draining for shutdown.
pub const REASON_SHUTTING_DOWN: &str = "shutting-down";
/// Rejection reason: load shedding is engaged (overload hysteresis).
pub const REASON_SHEDDING: &str = "shedding";
/// Rejection reason: this client's circuit breaker is open.
pub const REASON_BREAKER_OPEN: &str = "breaker-open";
/// Rejection reason: queue wait already exceeded the request deadline.
pub const REASON_DEADLINE: &str = "deadline-exceeded";

/// A structured parse/validation failure: an [`ErrorCode`] plus a
/// human-readable message. Rendered to clients as an `error` response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    /// Machine-readable category.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

impl ProtoError {
    fn new(code: ErrorCode, message: impl Into<String>) -> ProtoError {
        ProtoError {
            code,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code.as_str(), self.message)
    }
}

/// Admission limits applied while validating a `run` request. Requests
/// outside these bounds are rejected with `invalid-spec` before they
/// reach the scheduler.
#[derive(Debug, Clone)]
pub struct RequestLimits {
    /// Largest accepted workload scale.
    pub max_scale: u32,
    /// Largest accepted estimator list.
    pub max_specs: usize,
    /// Largest accepted histogram bucket count (distance/cluster jobs).
    pub max_buckets: u64,
}

impl Default for RequestLimits {
    fn default() -> RequestLimits {
        RequestLimits {
            max_scale: 8,
            max_specs: 16,
            max_buckets: 4096,
        }
    }
}

/// One parsed client request.
// `Run` dwarfs the control ops, but a request is parsed and moved once
// per line — boxing the job would cost an allocation on the hot path to
// shrink variants that are never stored in bulk.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit a simulation job for execution.
    Run {
        /// Client-chosen request id, echoed on every response.
        id: String,
        /// Client identity used for weighted fair queuing.
        client: String,
        /// Scheduling weight, 1..=100 (higher = more service).
        priority: u32,
        /// Wall-clock budget in milliseconds from admission to result;
        /// 0 means no deadline. Requests whose queue wait alone exceeds
        /// the budget are rejected (`deadline-exceeded`) without
        /// executing, and overdue executions are cancelled
        /// cooperatively.
        deadline_ms: u64,
        /// The simulation unit to execute.
        job: ExecJob,
    },
    /// Ask for a one-line counter snapshot.
    Stats,
    /// Liveness probe.
    Ping,
    /// Liveness/health probe: is the process up, draining, or degraded?
    Health,
    /// Readiness probe: will a `run` submitted now be admitted?
    Ready,
    /// Run a stale-cache sweep now.
    CacheGc,
    /// Drain queued work and stop the server.
    Shutdown,
}

/// One server response, as delivered to a client.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The job was admitted to shard `shard`.
    Accepted {
        /// Echoed request id.
        id: String,
        /// Worker group the job's cache key routed to.
        shard: usize,
        /// Queue depth on that shard after admission.
        queue_depth: usize,
    },
    /// The job was not admitted; `reason` is one of the `REASON_*`
    /// constants (`queue-full`, `shutting-down`, `shedding`,
    /// `breaker-open`, `deadline-exceeded`).
    Rejected {
        /// Echoed request id.
        id: String,
        /// Worker group the job's cache key routed to.
        shard: usize,
        /// Why admission failed (a `REASON_*` constant).
        reason: String,
        /// Queue depth observed at rejection time.
        queue_depth: usize,
    },
    /// Progress event: the job was dequeued and started executing.
    Started {
        /// Echoed request id.
        id: String,
        /// Worker group executing the job.
        shard: usize,
        /// Time spent queued, in nanoseconds.
        queue_wait_nanos: u64,
    },
    /// Terminal success: the job's output payload.
    Result {
        /// Echoed request id.
        id: String,
        /// True when served from the warm result cache.
        cached: bool,
        /// Wall time from admission to completion, in nanoseconds.
        elapsed_nanos: u64,
        /// The serialized `JobOutput` — identical to what `repro` caches.
        payload: Value,
    },
    /// Terminal failure: parse, validation, or execution error.
    Error {
        /// Echoed request id, when one was recoverable from the line.
        id: Option<String>,
        /// Stable [`ErrorCode`] wire string.
        code: String,
        /// Human-readable detail.
        message: String,
    },
    /// Counter snapshot (free-form object of u64 fields).
    Stats(Value),
    /// A cache sweep finished; `removed` entries were evicted.
    Gc {
        /// Number of stale entries removed.
        removed: u64,
    },
    /// Reply to `ping`.
    Pong,
    /// Reply to `health`: process liveness plus lifecycle flags.
    Health {
        /// Always true when the server answered at all.
        healthy: bool,
        /// True once shutdown has been requested (drain in progress).
        draining: bool,
        /// True while load shedding is engaged.
        degraded: bool,
    },
    /// Reply to `ready`: whether a `run` submitted now would be admitted.
    Ready {
        /// False while draining or shedding.
        ready: bool,
        /// Jobs currently queued across all shards.
        queued: u64,
    },
    /// The server acknowledged `shutdown` and is draining.
    ShuttingDown,
}

/// Parses one protocol line into a [`Request`].
///
/// Total over arbitrary bytes: returns a structured [`ProtoError`] for
/// oversized, non-UTF-8, non-JSON, ill-shaped, or out-of-bounds input.
///
/// # Errors
///
/// Returns [`ProtoError`] with the matching [`ErrorCode`] when the line
/// is not a valid request.
pub fn parse_line(bytes: &[u8], limits: &RequestLimits) -> Result<Request, ProtoError> {
    if bytes.len() > MAX_LINE_BYTES {
        return Err(ProtoError::new(
            ErrorCode::Oversized,
            format!("line exceeds {MAX_LINE_BYTES} bytes"),
        ));
    }
    let text = std::str::from_utf8(bytes)
        .map_err(|e| ProtoError::new(ErrorCode::Malformed, format!("not UTF-8: {e}")))?;
    let trimmed = text.trim();
    if trimmed.is_empty() {
        return Err(ProtoError::new(ErrorCode::BadRequest, "empty line"));
    }
    let value: Value = serde_json::from_str(trimmed)
        .map_err(|e| ProtoError::new(ErrorCode::Malformed, format!("not JSON: {e}")))?;
    let obj = value
        .as_object()
        .ok_or_else(|| ProtoError::new(ErrorCode::BadRequest, "request must be a JSON object"))?;
    let op = obj
        .get("op")
        .and_then(Value::as_str)
        .ok_or_else(|| ProtoError::new(ErrorCode::BadRequest, "missing string field `op`"))?;
    match op {
        "run" => {
            let id = obj
                .get("id")
                .and_then(Value::as_str)
                .ok_or_else(|| ProtoError::new(ErrorCode::BadRequest, "missing string field `id`"))?
                .to_string();
            let client = obj
                .get("client")
                .and_then(Value::as_str)
                .unwrap_or("anon")
                .to_string();
            let priority = match obj.get("priority") {
                None => 1,
                Some(v) => v
                    .as_u64()
                    .filter(|p| (1..=100).contains(p))
                    .ok_or_else(|| {
                        ProtoError::new(
                            ErrorCode::BadRequest,
                            "`priority` must be an integer in 1..=100",
                        )
                    })? as u32,
            };
            let deadline_ms = match obj.get("deadline_ms") {
                None => 0,
                Some(v) => v.as_u64().ok_or_else(|| {
                    ProtoError::new(
                        ErrorCode::BadRequest,
                        "`deadline_ms` must be a non-negative integer",
                    )
                })?,
            };
            let job_value = obj
                .get("job")
                .ok_or_else(|| ProtoError::new(ErrorCode::BadRequest, "missing field `job`"))?;
            let job = ExecJob::from_value(job_value).map_err(|e| {
                // An unknown predictor or estimator family inside the job
                // is a spec problem (`invalid-spec`), not a malformed
                // request: the envelope parsed fine, the job just names a
                // family this build does not provide. Unknown job kinds
                // (enum `ExecJob` itself) stay `bad-request`.
                let msg = e.to_string();
                let spec_enums = ["PredictorKind", "EstimatorSpec", "SatVariantSpec"];
                let code = if spec_enums
                    .iter()
                    .any(|ty| msg.contains(&format!("for enum {ty}")))
                {
                    ErrorCode::InvalidSpec
                } else {
                    ErrorCode::BadRequest
                };
                ProtoError::new(code, format!("bad `job`: {msg}"))
            })?;
            validate_job(&job, limits)?;
            Ok(Request::Run {
                id,
                client,
                priority,
                deadline_ms,
                job,
            })
        }
        "stats" => Ok(Request::Stats),
        "ping" => Ok(Request::Ping),
        "health" => Ok(Request::Health),
        "ready" => Ok(Request::Ready),
        "cache-gc" => Ok(Request::CacheGc),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(ProtoError::new(
            ErrorCode::BadRequest,
            format!("unknown op `{other}`"),
        )),
    }
}

/// Validates a deserialized job against the server's admission limits and
/// [`PipelineConfig::validate`].
///
/// # Errors
///
/// Returns an `invalid-spec` [`ProtoError`] naming the offending bound.
pub fn validate_job(job: &ExecJob, limits: &RequestLimits) -> Result<(), ProtoError> {
    let invalid = |msg: String| ProtoError::new(ErrorCode::InvalidSpec, msg);
    let check_scale = |scale: u32| {
        if scale == 0 || scale > limits.max_scale {
            Err(invalid(format!(
                "scale {scale} outside 1..={}",
                limits.max_scale
            )))
        } else {
            Ok(())
        }
    };
    let check_pipeline = |pipeline: &PipelineConfig| {
        pipeline
            .validate()
            .map_err(|e| invalid(format!("pipeline: {e}")))
    };
    let check_cfg = |cfg: &RunConfig| {
        check_scale(cfg.scale)?;
        check_pipeline(&cfg.pipeline)
    };
    let check_specs = |specs: &[EstimatorSpec]| {
        if specs.len() > limits.max_specs {
            return Err(invalid(format!(
                "{} estimators exceeds limit {}",
                specs.len(),
                limits.max_specs
            )));
        }
        for s in specs {
            s.validate().map_err(|e| invalid(e.to_string()))?;
        }
        Ok(())
    };
    let check_buckets = |b: u64| {
        if b == 0 || b > limits.max_buckets {
            Err(invalid(format!(
                "buckets {b} outside 1..={}",
                limits.max_buckets
            )))
        } else {
            Ok(())
        }
    };
    match job {
        ExecJob::Run { cfg, specs } => {
            check_cfg(cfg)?;
            check_specs(specs)
        }
        ExecJob::CrossProfileRun { cfg, specs, .. } => {
            check_cfg(cfg)?;
            check_specs(specs)
        }
        ExecJob::Distance { cfg, buckets } => {
            check_cfg(cfg)?;
            check_buckets(*buckets)
        }
        ExecJob::Cluster { cfg, spec, buckets } => {
            check_cfg(cfg)?;
            spec.validate().map_err(|e| invalid(e.to_string()))?;
            check_buckets(*buckets)
        }
        ExecJob::Boost { cfg, specs, max_k } => {
            check_cfg(cfg)?;
            check_specs(specs)?;
            if specs.is_empty() {
                return Err(invalid(
                    "boost jobs need at least one estimator".to_string(),
                ));
            }
            if *max_k == 0 || *max_k > 64 {
                return Err(invalid(format!("max_k {max_k} outside 1..=64")));
            }
            Ok(())
        }
        ExecJob::Replay {
            records,
            pipeline,
            specs,
            ..
        } => {
            check_pipeline(pipeline)?;
            if pipeline.eager_max_forks.is_some() {
                return Err(invalid(
                    "trace replay cannot fork wrong paths (eager execution)".to_string(),
                ));
            }
            check_specs(specs)?;
            // Inline traces are bounded by the protocol's line cap anyway;
            // this bound produces a structured rejection before a huge
            // record array ties up a worker.
            if records.len() > MAX_REPLAY_RECORDS {
                return Err(invalid(format!(
                    "{} trace records exceeds limit {MAX_REPLAY_RECORDS}",
                    records.len()
                )));
            }
            Ok(())
        }
        ExecJob::Smt { scale, .. } => check_scale(*scale),
    }
}

/// Largest inline trace a `Replay` job may carry over the wire.
pub const MAX_REPLAY_RECORDS: usize = 1 << 20;

/// Renders a request as one protocol line (no trailing newline).
pub fn render_request(req: &Request) -> String {
    match req {
        Request::Run {
            id,
            client,
            priority,
            deadline_ms,
            job,
        } => serde_json::json!({
            "op": "run",
            "id": id,
            "client": client,
            "priority": priority,
            "deadline_ms": deadline_ms,
            "job": serde::to_value(job),
        })
        .to_string(),
        Request::Stats => r#"{"op":"stats"}"#.to_string(),
        Request::Ping => r#"{"op":"ping"}"#.to_string(),
        Request::Health => r#"{"op":"health"}"#.to_string(),
        Request::Ready => r#"{"op":"ready"}"#.to_string(),
        Request::CacheGc => r#"{"op":"cache-gc"}"#.to_string(),
        Request::Shutdown => r#"{"op":"shutdown"}"#.to_string(),
    }
}

/// Renders a response as one protocol line (no trailing newline).
pub fn render_response(resp: &Response) -> String {
    match resp {
        Response::Accepted {
            id,
            shard,
            queue_depth,
        } => serde_json::json!({
            "type": "accepted", "id": id, "shard": shard, "queue_depth": queue_depth,
        })
        .to_string(),
        Response::Rejected {
            id,
            shard,
            reason,
            queue_depth,
        } => serde_json::json!({
            "type": "rejected", "id": id, "shard": shard,
            "reason": reason, "queue_depth": queue_depth,
        })
        .to_string(),
        Response::Started {
            id,
            shard,
            queue_wait_nanos,
        } => serde_json::json!({
            "type": "started", "id": id, "shard": shard,
            "queue_wait_nanos": queue_wait_nanos,
        })
        .to_string(),
        Response::Result {
            id,
            cached,
            elapsed_nanos,
            payload,
        } => serde_json::json!({
            "type": "result", "id": id, "cached": cached,
            "elapsed_nanos": elapsed_nanos, "payload": payload.clone(),
        })
        .to_string(),
        Response::Error { id, code, message } => {
            let idv = match id {
                Some(s) => Value::String(s.clone()),
                None => Value::Null,
            };
            serde_json::json!({
                "type": "error", "id": idv, "code": code, "message": message,
            })
            .to_string()
        }
        Response::Stats(fields) => serde_json::json!({
            "type": "stats", "fields": fields.clone(),
        })
        .to_string(),
        Response::Gc { removed } => serde_json::json!({
            "type": "gc", "removed": removed,
        })
        .to_string(),
        Response::Pong => r#"{"type":"pong"}"#.to_string(),
        Response::Health {
            healthy,
            draining,
            degraded,
        } => serde_json::json!({
            "type": "health", "healthy": healthy,
            "draining": draining, "degraded": degraded,
        })
        .to_string(),
        Response::Ready { ready, queued } => serde_json::json!({
            "type": "ready", "ready": ready, "queued": queued,
        })
        .to_string(),
        Response::ShuttingDown => r#"{"type":"shutting-down"}"#.to_string(),
    }
}

/// Parses one response line back into a [`Response`] (the client half).
///
/// Returns `None` for lines that are not a recognizable response.
pub fn parse_response(line: &str) -> Option<Response> {
    let value: Value = serde_json::from_str(line.trim()).ok()?;
    let obj = value.as_object()?;
    let kind = obj.get("type").and_then(Value::as_str)?;
    let id = || obj.get("id").and_then(Value::as_str).map(str::to_string);
    match kind {
        "accepted" => Some(Response::Accepted {
            id: id()?,
            shard: obj.get("shard")?.as_u64()? as usize,
            queue_depth: obj.get("queue_depth")?.as_u64()? as usize,
        }),
        "rejected" => Some(Response::Rejected {
            id: id()?,
            shard: obj.get("shard")?.as_u64()? as usize,
            reason: obj.get("reason")?.as_str()?.to_string(),
            queue_depth: obj.get("queue_depth")?.as_u64()? as usize,
        }),
        "started" => Some(Response::Started {
            id: id()?,
            shard: obj.get("shard")?.as_u64()? as usize,
            queue_wait_nanos: obj.get("queue_wait_nanos")?.as_u64()?,
        }),
        "result" => Some(Response::Result {
            id: id()?,
            cached: obj.get("cached")?.as_bool()?,
            elapsed_nanos: obj.get("elapsed_nanos")?.as_u64()?,
            payload: obj.get("payload")?.clone(),
        }),
        "error" => Some(Response::Error {
            id: id(),
            code: obj.get("code")?.as_str()?.to_string(),
            message: obj.get("message")?.as_str()?.to_string(),
        }),
        "stats" => Some(Response::Stats(obj.get("fields")?.clone())),
        "gc" => Some(Response::Gc {
            removed: obj.get("removed")?.as_u64()?,
        }),
        "pong" => Some(Response::Pong),
        "health" => Some(Response::Health {
            healthy: obj.get("healthy")?.as_bool()?,
            draining: obj.get("draining")?.as_bool()?,
            degraded: obj.get("degraded")?.as_bool()?,
        }),
        "ready" => Some(Response::Ready {
            ready: obj.get("ready")?.as_bool()?,
            queued: obj.get("queued")?.as_u64()?,
        }),
        "shutting-down" => Some(Response::ShuttingDown),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cestim_sim::{PredictorKind, RunConfig};
    use cestim_workloads::WorkloadKind;

    fn sample_job() -> ExecJob {
        ExecJob::Distance {
            cfg: RunConfig::paper(WorkloadKind::Compress, 1, PredictorKind::Gshare),
            buckets: 64,
        }
    }

    #[test]
    fn run_request_round_trips() {
        let req = Request::Run {
            id: "r1".to_string(),
            client: "alice".to_string(),
            priority: 10,
            deadline_ms: 500,
            job: sample_job(),
        };
        let line = render_request(&req);
        let parsed = parse_line(line.as_bytes(), &RequestLimits::default()).unwrap();
        assert_eq!(parsed, req);
    }

    #[test]
    fn deadline_defaults_to_zero_and_rejects_non_integers() {
        let limits = RequestLimits::default();
        let job = serde::to_value(&sample_job());
        let line = serde_json::json!({"op":"run","id":"r1","job":job.clone()}).to_string();
        match parse_line(line.as_bytes(), &limits).unwrap() {
            Request::Run { deadline_ms, .. } => assert_eq!(deadline_ms, 0),
            other => panic!("unexpected parse: {other:?}"),
        }
        let bad = serde_json::json!({"op":"run","id":"r1","deadline_ms":-5,"job":job}).to_string();
        assert_eq!(
            parse_line(bad.as_bytes(), &limits).unwrap_err().code,
            ErrorCode::BadRequest
        );
    }

    #[test]
    fn replay_requests_round_trip_with_inline_records() {
        use cestim_pipeline::PipelineConfig;
        use cestim_sim::{EstimatorSpec, TraceRecord};
        let records: Vec<TraceRecord> = cestim_trace_io::from_jsonl(concat!(
            "{\"format\":\"cestim-trace\",\"version\":1}\n",
            "{\"pc\":4,\"target\":0,\"taken\":false,\"class\":\"alu\",\"dst\":5,\"s1\":5,\"s2\":255}\n",
            "{\"pc\":8,\"target\":4,\"taken\":true,\"class\":\"branch\",\"dst\":255,\"s1\":5,\"s2\":255}\n",
            "{\"pc\":12,\"target\":0,\"taken\":false,\"class\":\"halt\",\"dst\":255,\"s1\":255,\"s2\":255}\n",
        ))
        .unwrap();
        let req = Request::Run {
            id: "t1".to_string(),
            client: "alice".to_string(),
            priority: 5,
            deadline_ms: 0,
            job: ExecJob::Replay {
                records,
                predictor: PredictorKind::Gshare,
                pipeline: PipelineConfig::paper(),
                specs: vec![EstimatorSpec::jrs_paper()],
            },
        };
        let line = render_request(&req);
        let parsed = parse_line(line.as_bytes(), &RequestLimits::default()).unwrap();
        assert_eq!(parsed, req);
    }

    #[test]
    fn replay_validation_bounds_records_and_specs() {
        use cestim_pipeline::PipelineConfig;
        use cestim_sim::{EstimatorSpec, TraceRecord};
        let limits = RequestLimits::default();
        let job = |n_specs: usize| ExecJob::Replay {
            records: Vec::<TraceRecord>::new(),
            predictor: PredictorKind::Gshare,
            pipeline: PipelineConfig::paper(),
            specs: vec![EstimatorSpec::jrs_paper(); n_specs],
        };
        assert!(validate_job(&job(1), &limits).is_ok());
        assert_eq!(
            validate_job(&job(limits.max_specs + 1), &limits)
                .unwrap_err()
                .code,
            ErrorCode::InvalidSpec
        );
    }

    #[test]
    fn control_ops_parse() {
        let limits = RequestLimits::default();
        assert_eq!(
            parse_line(br#"{"op":"ping"}"#, &limits).unwrap(),
            Request::Ping
        );
        assert_eq!(
            parse_line(br#"{"op":"stats"}"#, &limits).unwrap(),
            Request::Stats
        );
        assert_eq!(
            parse_line(br#"{"op":"cache-gc"}"#, &limits).unwrap(),
            Request::CacheGc
        );
        assert_eq!(
            parse_line(br#"{"op":"shutdown"}"#, &limits).unwrap(),
            Request::Shutdown
        );
        assert_eq!(
            parse_line(br#"{"op":"health"}"#, &limits).unwrap(),
            Request::Health
        );
        assert_eq!(
            parse_line(br#"{"op":"ready"}"#, &limits).unwrap(),
            Request::Ready
        );
    }

    #[test]
    fn structured_errors_for_bad_input() {
        let limits = RequestLimits::default();
        let code = |bytes: &[u8]| parse_line(bytes, &limits).unwrap_err().code;
        assert_eq!(code(&vec![b'x'; MAX_LINE_BYTES + 1]), ErrorCode::Oversized);
        assert_eq!(code(&[0xff, 0xfe, b'{']), ErrorCode::Malformed);
        assert_eq!(code(b"{not json"), ErrorCode::Malformed);
        assert_eq!(code(b"42"), ErrorCode::BadRequest);
        assert_eq!(code(b"{}"), ErrorCode::BadRequest);
        assert_eq!(code(br#"{"op":"warp"}"#), ErrorCode::BadRequest);
        assert_eq!(code(br#"{"op":"run","id":"x"}"#), ErrorCode::BadRequest);
        assert_eq!(
            code(br#"{"op":"run","id":"x","priority":0,"job":{}}"#),
            ErrorCode::BadRequest
        );
        assert_eq!(code(b"   "), ErrorCode::BadRequest);
    }

    #[test]
    fn validation_enforces_limits() {
        let limits = RequestLimits::default();
        let mut cfg = RunConfig::paper(WorkloadKind::Compress, 1, PredictorKind::Gshare);
        cfg.scale = limits.max_scale + 1;
        let job = ExecJob::Distance { cfg, buckets: 64 };
        let err = validate_job(&job, &limits).unwrap_err();
        assert_eq!(err.code, ErrorCode::InvalidSpec);

        let ok = sample_job();
        assert!(validate_job(&ok, &limits).is_ok());

        let bad_buckets = ExecJob::Distance {
            cfg: RunConfig::paper(WorkloadKind::Compress, 1, PredictorKind::Gshare),
            buckets: limits.max_buckets + 1,
        };
        assert_eq!(
            validate_job(&bad_buckets, &limits).unwrap_err().code,
            ErrorCode::InvalidSpec
        );

        // Pipeline configurations the simulators cannot run: each would
        // otherwise reach a panic (or a process-killing allocation) on a
        // worker. Trace replay also cannot fork wrong paths.
        let bad_pipelines: [fn(&mut PipelineConfig); 6] = [
            |p| p.max_unresolved_branches = 1 << 40,
            |p| p.fetch_width = 0,
            |p| p.gate_threshold = Some(0),
            |p| p.ghr_width = 0,
            |p| p.icache.sets = 3,
            |p| p.dcache.assoc = 0,
        ];
        for break_it in bad_pipelines {
            let mut cfg = RunConfig::paper(WorkloadKind::Compress, 1, PredictorKind::Gshare);
            break_it(&mut cfg.pipeline);
            let run = ExecJob::Run {
                cfg,
                specs: Vec::new(),
            };
            let err = validate_job(&run, &limits).unwrap_err();
            assert_eq!(err.code, ErrorCode::InvalidSpec, "{}", err.message);
            assert!(err.message.starts_with("pipeline: "), "{}", err.message);
        }
        let mut no_fetch = PipelineConfig::paper();
        no_fetch.fetch_width = 0;
        for pipeline in [no_fetch, PipelineConfig::paper().with_eager(1)] {
            let replay = ExecJob::Replay {
                records: Vec::new(),
                predictor: PredictorKind::Gshare,
                pipeline,
                specs: Vec::new(),
            };
            let err = validate_job(&replay, &limits).unwrap_err();
            assert_eq!(err.code, ErrorCode::InvalidSpec, "{}", err.message);
        }
    }

    #[test]
    fn unknown_predictor_or_estimator_name_is_invalid_spec() {
        let limits = RequestLimits::default();
        let err = |line: String| parse_line(line.as_bytes(), &limits).unwrap_err();
        // Corrupt the predictor name inside an otherwise valid job.
        let job = serde::to_value(&sample_job())
            .to_string()
            .replace("\"Gshare\"", "\"Hexapod\"");
        let e = err(format!(r#"{{"op":"run","id":"x","job":{job}}}"#));
        assert_eq!(e.code, ErrorCode::InvalidSpec);
        assert!(e.message.contains("Hexapod"), "{}", e.message);

        // Same for an unknown estimator family.
        let bad_spec = serde_json::json!({"op":"run","id":"x","job":{"Run":{
            "cfg": serde::to_value(&RunConfig::paper(
                WorkloadKind::Compress, 1, PredictorKind::Gshare)),
            "specs": [{"Quantum":{"qubits":3}}],
        }}});
        assert_eq!(err(bad_spec.to_string()).code, ErrorCode::InvalidSpec);

        // Unknown job *kind* stays bad-request: the spec enums are fine,
        // the envelope's job payload is not a known operation.
        let e = err(r#"{"op":"run","id":"x","job":{"What":{}}}"#.to_string());
        assert_eq!(e.code, ErrorCode::BadRequest);
    }

    #[test]
    fn structurally_invalid_specs_are_rejected() {
        use cestim_sim::EstimatorSpec;
        let limits = RequestLimits::default();
        let cfg = RunConfig::paper(WorkloadKind::Compress, 1, PredictorKind::Gshare);
        let bad_vote = ExecJob::Run {
            cfg: cfg.clone(),
            specs: vec![EstimatorSpec::Voting {
                components: vec![],
                quorum: 1,
            }],
        };
        let err = validate_job(&bad_vote, &limits).unwrap_err();
        assert_eq!(err.code, ErrorCode::InvalidSpec);

        let bad_cluster = ExecJob::Cluster {
            cfg: cfg.clone(),
            spec: EstimatorSpec::Voting {
                components: vec![EstimatorSpec::AlwaysHigh],
                quorum: 9,
            },
            buckets: 64,
        };
        assert_eq!(
            validate_job(&bad_cluster, &limits).unwrap_err().code,
            ErrorCode::InvalidSpec
        );

        let good = ExecJob::Run {
            cfg,
            specs: vec![EstimatorSpec::Voting {
                components: vec![
                    EstimatorSpec::Timing { threshold: 4 },
                    EstimatorSpec::Distance { threshold: 3 },
                ],
                quorum: 1,
            }],
        };
        assert!(validate_job(&good, &limits).is_ok());
    }

    #[test]
    fn responses_round_trip() {
        let cases = vec![
            Response::Accepted {
                id: "a".to_string(),
                shard: 1,
                queue_depth: 3,
            },
            Response::Rejected {
                id: "b".to_string(),
                shard: 0,
                reason: "queue-full".to_string(),
                queue_depth: 64,
            },
            Response::Started {
                id: "c".to_string(),
                shard: 2,
                queue_wait_nanos: 12345,
            },
            Response::Result {
                id: "d".to_string(),
                cached: true,
                elapsed_nanos: 99,
                payload: serde_json::json!({"k": 1}),
            },
            Response::Error {
                id: None,
                code: "malformed-json".to_string(),
                message: "not JSON".to_string(),
            },
            Response::Gc { removed: 4 },
            Response::Pong,
            Response::Health {
                healthy: true,
                draining: false,
                degraded: true,
            },
            Response::Ready {
                ready: false,
                queued: 17,
            },
            Response::ShuttingDown,
        ];
        for resp in cases {
            let line = render_response(&resp);
            assert_eq!(parse_response(&line).unwrap(), resp, "{line}");
        }
    }
}
