//! Newline-delimited-JSON transport for the fleet service.
//!
//! One request per line on the way in, one response per line on the way
//! out, in completion order. This is what `ftqs serve` speaks over files
//! and stdin, and what `ftqs submit` generates.
//!
//! Request lines are JSON objects:
//!
//! ```json
//! {"id": 1, "preset": {"family": "fig9", "size": 20, "seed": 7}, "policy": "ftqs", "budget": 8}
//! {"id": 2, "spec": "period 300ms\nfaults 1 x 10ms\n...", "policy": "ftss"}
//! ```
//!
//! * `id` (required): echoed on the response.
//! * exactly one of `spec` (spec text) or `preset`
//!   (`{"family", "size", "seed"}`; `seed` defaults to 0).
//! * `policy` (optional): `"ftss"`, `"ftqs"` (default), or `"ftsf"`;
//!   `budget` (optional, default 8) applies to `"ftqs"`.
//! * `validate` (optional bool) and `max_processes` (optional integer)
//!   forward to the corresponding [`SynthesisRequest`] overrides.
//! * `priority` (optional): `"interactive"` or `"bulk"` (default) —
//!   interactive requests overtake queued bulk requests.
//! * `deadline_ms` (optional integer): service-level deadline from
//!   submission; a request still queued past it is answered with a
//!   deadline-exceeded error instead of being synthesized.
//!
//! A malformed line never aborts the batch: it yields an immediate
//! per-request error response carrying the request id when one could be
//! extracted (and the line number either way), and the remaining lines
//! are served normally.
//!
//! Backpressure: both service buffers are bounded, and [`serve`] is one
//! thread acting as producer *and* consumer — so it never blocks on a
//! full work queue. It submits with [`Service::try_submit`] and, on
//! [`SubmitError::Backpressure`](crate::SubmitError), drains completed
//! responses to the output before retrying; the reader stalls exactly
//! when the fleet is saturated, and memory stays within the configured
//! queue + ring bounds no matter how large the input batch is.

use crate::{JobSource, Priority, Service, ServiceRequest, ServiceResponse, SubmitError};
use ftqs_core::{SynthesisReport, SynthesisRequest};
use serde::{Deserialize, Serialize, Value};
use std::io::{BufRead, Write};
use std::time::Duration;

/// Default FTQS schedule budget for request lines that omit `budget`.
pub const DEFAULT_BUDGET: usize = 8;

/// One response line, as written by [`serve`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WireResponse {
    /// The request's id (0 when a malformed line had no extractable id;
    /// the error message then names the line).
    pub id: u64,
    /// Whether `report` is present.
    pub ok: bool,
    /// Why not, when `ok` is false.
    pub error: Option<String>,
    /// Whether the outcome came from the cache; this request ran no
    /// synthesis. A cached report's `timing` is that of the synthesis
    /// that produced it.
    pub cache_hit: bool,
    /// Queue-wait time in microseconds.
    pub queued_micros: u64,
    /// This request's own service time in microseconds: the cache
    /// lookup, plus resolve + synthesis on a miss.
    pub service_micros: u64,
    /// Whether the request's deadline (if any) had passed by the time
    /// the response was produced.
    pub deadline_missed: bool,
    /// The synthesis report, when `ok`.
    pub report: Option<SynthesisReport>,
}

impl From<ServiceResponse> for WireResponse {
    fn from(r: ServiceResponse) -> Self {
        match r.outcome {
            Ok(report) => WireResponse {
                id: r.id,
                ok: true,
                error: None,
                cache_hit: r.cache_hit,
                queued_micros: r.queued_micros,
                service_micros: r.service_micros,
                deadline_missed: r.deadline_missed,
                report: Some(report),
            },
            Err(e) => WireResponse {
                id: r.id,
                ok: false,
                error: Some(e.to_string()),
                cache_hit: r.cache_hit,
                queued_micros: r.queued_micros,
                service_micros: r.service_micros,
                deadline_missed: r.deadline_missed,
                report: None,
            },
        }
    }
}

/// What [`serve`] pushed through the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeSummary {
    /// Request lines accepted and synthesized.
    pub accepted: u64,
    /// Request lines rejected with a per-line error response.
    pub malformed: u64,
}

fn opt_field<'v>(value: &'v Value, name: &str) -> Option<&'v Value> {
    value.get_field(name).ok()
}

fn as_u64(value: &Value) -> Option<u64> {
    match value {
        Value::U64(x) => Some(*x),
        _ => None,
    }
}

fn as_str(value: &Value) -> Option<&str> {
    match value {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

fn as_bool(value: &Value) -> Option<bool> {
    match value {
        Value::Bool(b) => Some(*b),
        _ => None,
    }
}

fn parse_source(value: &Value) -> Result<JobSource, String> {
    let spec = opt_field(value, "spec");
    let preset = opt_field(value, "preset");
    match (spec, preset) {
        (Some(_), Some(_)) => Err("request has both 'spec' and 'preset'".to_string()),
        (None, None) => Err("request needs either 'spec' or 'preset'".to_string()),
        (Some(s), None) => {
            let text = as_str(s).ok_or("'spec' must be a string")?;
            Ok(JobSource::Spec(text.to_string()))
        }
        (None, Some(p)) => {
            let family = opt_field(p, "family")
                .and_then(as_str)
                .ok_or("'preset' needs a string 'family'")?;
            let size = opt_field(p, "size")
                .and_then(as_u64)
                .ok_or("'preset' needs a non-negative integer 'size'")?;
            let seed = match opt_field(p, "seed") {
                None => 0,
                Some(v) => as_u64(v).ok_or("'preset.seed' must be a non-negative integer")?,
            };
            Ok(JobSource::Preset {
                family: family.to_string(),
                size: usize::try_from(size).map_err(|_| "'preset.size' out of range")?,
                seed,
            })
        }
    }
}

fn parse_synthesis_request(value: &Value) -> Result<SynthesisRequest, String> {
    let policy = match opt_field(value, "policy") {
        None => "ftqs",
        Some(v) => as_str(v).ok_or("'policy' must be a string")?,
    };
    let budget = match opt_field(value, "budget") {
        None => DEFAULT_BUDGET,
        Some(v) => {
            let b = as_u64(v).ok_or("'budget' must be a non-negative integer")?;
            usize::try_from(b).map_err(|_| "'budget' out of range")?
        }
    };
    let mut request = match policy {
        "ftss" => SynthesisRequest::ftss(),
        "ftqs" => SynthesisRequest::ftqs(budget),
        "ftsf" => SynthesisRequest::ftsf(),
        other => return Err(format!("unknown policy '{other}' (ftss|ftqs|ftsf)")),
    };
    if let Some(v) = opt_field(value, "validate") {
        request = request.with_validation(as_bool(v).ok_or("'validate' must be a boolean")?);
    }
    if let Some(v) = opt_field(value, "max_processes") {
        let n = as_u64(v).ok_or("'max_processes' must be a non-negative integer")?;
        request = request
            .with_max_processes(usize::try_from(n).map_err(|_| "'max_processes' out of range")?);
    }
    Ok(request)
}

fn parse_priority(value: &Value) -> Result<Priority, String> {
    match opt_field(value, "priority") {
        None => Ok(Priority::default()),
        Some(v) => match as_str(v) {
            Some("interactive") => Ok(Priority::Interactive),
            Some("bulk") => Ok(Priority::Bulk),
            Some(other) => Err(format!("unknown priority '{other}' (interactive|bulk)")),
            None => Err("'priority' must be a string".to_string()),
        },
    }
}

fn parse_deadline(value: &Value) -> Result<Option<Duration>, String> {
    match opt_field(value, "deadline_ms") {
        None => Ok(None),
        Some(v) => {
            let ms = as_u64(v).ok_or("'deadline_ms' must be a non-negative integer")?;
            Ok(Some(Duration::from_millis(ms)))
        }
    }
}

/// Parses one request line.
///
/// # Errors
///
/// `(id, message)` on malformed input; `id` is present whenever the line
/// was valid JSON with an integer `id`, so the error response can still
/// be correlated.
pub fn parse_request(line: &str) -> Result<ServiceRequest, (Option<u64>, String)> {
    let value: Value =
        serde_json::from_str(line).map_err(|e| (None, format!("malformed JSON: {e}")))?;
    let id = opt_field(&value, "id").and_then(as_u64);
    let fail = |msg: String| (id, msg);
    let Some(id) = id else {
        return Err((
            None,
            "request needs a non-negative integer 'id'".to_string(),
        ));
    };
    let source = parse_source(&value).map_err(fail)?;
    let request = parse_synthesis_request(&value).map_err(fail)?;
    let priority = parse_priority(&value).map_err(fail)?;
    let deadline = parse_deadline(&value).map_err(fail)?;
    let mut service_request = ServiceRequest::new(id, source, request).with_priority(priority);
    if let Some(deadline) = deadline {
        service_request = service_request.with_deadline(deadline);
    }
    Ok(service_request)
}

/// Renders a preset request line as `ftqs submit` emits it. `priority`
/// (interactive|bulk) and `deadline_ms` are emitted only when given.
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn preset_request_line(
    id: u64,
    family: &str,
    size: usize,
    seed: u64,
    policy: &str,
    budget: usize,
    priority: Option<&str>,
    deadline_ms: Option<u64>,
) -> String {
    let preset = Value::Map(vec![
        ("family".to_string(), Value::Str(family.to_string())),
        ("size".to_string(), Value::U64(size as u64)),
        ("seed".to_string(), Value::U64(seed)),
    ]);
    let mut fields = vec![
        ("id".to_string(), Value::U64(id)),
        ("preset".to_string(), preset),
        ("policy".to_string(), Value::Str(policy.to_string())),
        ("budget".to_string(), Value::U64(budget as u64)),
    ];
    if let Some(priority) = priority {
        fields.push(("priority".to_string(), Value::Str(priority.to_string())));
    }
    if let Some(ms) = deadline_ms {
        fields.push(("deadline_ms".to_string(), Value::U64(ms)));
    }
    serde_json::to_string(&Value::Map(fields)).expect("value rendering is infallible")
}

fn write_response<W: Write>(output: &mut W, response: &WireResponse) -> std::io::Result<()> {
    let line = serde_json::to_string(response).expect("report serialization is infallible");
    writeln!(output, "{line}")
}

fn error_response(id: Option<u64>, line_number: u64, message: &str) -> WireResponse {
    let error = match id {
        Some(_) => message.to_string(),
        None => format!("line {line_number}: {message}"),
    };
    WireResponse {
        id: id.unwrap_or(0),
        ok: false,
        error: Some(error),
        cache_hit: false,
        queued_micros: 0,
        service_micros: 0,
        deadline_missed: false,
        report: None,
    }
}

/// Reads NDJSON requests from `input`, runs them through `service`, and
/// writes NDJSON responses to `output` in completion order (malformed
/// lines answer immediately, in input order). Blank lines are skipped.
/// Returns once every accepted request has been answered.
///
/// Backpressure from the bounded work queue is absorbed by draining
/// completed responses to the output before retrying the submission (see
/// the module docs) — the input reader stalls when the fleet is
/// saturated, and both service buffers stay within their bounds.
///
/// # Errors
///
/// Only I/O errors propagate; malformed requests and failed syntheses
/// are per-line error responses.
pub fn serve<R: BufRead, W: Write>(
    service: &Service,
    input: R,
    output: &mut W,
) -> std::io::Result<ServeSummary> {
    let mut accepted: u64 = 0;
    let mut answered: u64 = 0;
    let mut malformed: u64 = 0;
    for (index, line) in input.lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        match parse_request(&line) {
            Ok(request) => loop {
                match service.try_submit(request.clone()) {
                    Ok(()) => {
                        accepted += 1;
                        break;
                    }
                    Err(SubmitError::Backpressure { .. }) => {
                        // Full queue: the fleet is busy producing
                        // responses, so consume one to make room.
                        if let Some(response) = service.recv_timeout(Duration::from_millis(2)) {
                            answered += 1;
                            write_response(output, &WireResponse::from(response))?;
                        }
                    }
                    Err(SubmitError::Stopped) => break,
                }
            },
            Err((id, message)) => {
                malformed += 1;
                write_response(output, &error_response(id, index as u64 + 1, &message))?;
            }
        }
        // Stream whatever has already completed so huge batches don't
        // buffer every response until the input is drained.
        while answered < accepted {
            match service.recv_timeout(Duration::ZERO) {
                Some(response) => {
                    answered += 1;
                    write_response(output, &WireResponse::from(response))?;
                }
                None => break,
            }
        }
    }
    while answered < accepted {
        match service.recv() {
            Some(response) => {
                answered += 1;
                write_response(output, &WireResponse::from(response))?;
            }
            None => break,
        }
    }
    output.flush()?;
    Ok(ServeSummary {
        accepted,
        malformed,
    })
}
