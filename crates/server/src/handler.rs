//! Request execution: one decoded [`Request`] in, one [`Answer`] or
//! typed error out, against either engine mode.
//!
//! Writes and ping/shutdown are answered here. Every other request is
//! a [`Question`], answered by the hosted engine's `answer` table (the
//! only place a question meets a technique) and converted to its wire
//! shape. In-memory questions run inside a single `with_engine`
//! closure, so each request observes one consistent engine state even
//! while writers interleave (MWQ's reverse-skyline → safe-region →
//! repair chain is atomic with respect to writes). Paged-mode writes
//! are answered [`ErrorKind::Unsupported`] — the page-resident index is
//! read-only by design (see `DESIGN.md` §3b).

use crate::host::EngineHost;
use crate::proto::{Answer, ErrorKind, Request};
use wnrs_core::{Question, QuestionError, Reply, WhyNotEngine};

type HandleResult = Result<Answer, (ErrorKind, String)>;

/// Executes `req` against the hosted engine, safe regions approximated
/// from `approx_k` samples when set. Never panics: every malformed or
/// inapplicable request maps to a typed error response.
pub(crate) fn handle(host: &EngineHost, approx_k: Option<usize>, req: Request) -> HandleResult {
    let question = match req {
        Request::Ping | Request::Shutdown => return Ok(Answer::Empty),
        Request::Insert { point } => {
            return write(host, |e| {
                if point.dim() != e.dim() {
                    let (got, dim) = (point.dim(), e.dim());
                    let msg = format!("point has {got} dimension(s), dataset has {dim}");
                    return Err((ErrorKind::BadRequest, msg));
                }
                Ok(Answer::Inserted(e.insert(point)))
            })
        }
        Request::Delete { id } => {
            return write(host, |e| {
                if id.0 as usize >= e.len() {
                    let (got, len) = (id.0, e.len());
                    let msg = format!("customer id {got} out of range (dataset has {len} tuples)");
                    return Err((ErrorKind::BadRequest, msg));
                }
                Ok(Answer::Deleted(e.delete(id)))
            })
        }
        Request::Rsl { q } => Question::Rsl { q },
        Request::Explain { customer, q } => Question::Explain { customer, q },
        Request::Mwp { customer, q } => Question::Mwp { customer, q },
        Request::Mqp { customer, q } => Question::Mqp { customer, q },
        Request::SafeRegion { q } => Question::SafeRegion { q, approx_k },
        Request::Mwq { customer, q } => Question::Mwq {
            customer,
            q,
            approx_k,
        },
    };
    let reply = match host {
        EngineHost::Memory(m) => m.with_engine(|e| e.answer(&question)),
        EngineHost::Paged(engine) => engine.answer(&question),
    };
    Ok(match reply.map_err(refusal)? {
        Reply::Rsl(items) => Answer::Items(items),
        Reply::Explain(ex) => Answer::Items(ex.culprits),
        Reply::Mwp(ans) => Answer::Candidates(ans.candidates),
        Reply::Mqp(ans) => Answer::Candidates(ans.candidates),
        Reply::SafeRegion { region, .. } => Answer::Region(crate::proto::region_to_wire(&region)),
        Reply::Mwq { answer, .. } => Answer::Mwq {
            case: answer.case,
            q_star: answer.q_star,
            c_star: answer.c_star,
            cost: answer.cost,
        },
    })
}

/// The wire status of a refused question.
fn refusal(e: QuestionError) -> (ErrorKind, String) {
    let kind = match e {
        QuestionError::Unsupported(_) => ErrorKind::Unsupported,
        QuestionError::PageRead(_) => ErrorKind::Internal,
        _ => ErrorKind::BadRequest,
    };
    (kind, e.to_string())
}

/// Runs a write with exclusive access to the in-memory engine, so it
/// flows through the engine's surgical cache invalidation.
fn write(host: &EngineHost, f: impl FnOnce(&mut WhyNotEngine) -> HandleResult) -> HandleResult {
    match host {
        EngineHost::Memory(m) => m.with_engine_mut(f),
        EngineHost::Paged(_) => Err((
            ErrorKind::Unsupported,
            "paged index is read-only; writes require the in-memory engine".to_string(),
        )),
    }
}
