//! One typed why-not question, its premises and its answer.
//!
//! The paper asks why customer `c_t` is missing from `RSL(q)` and what
//! the cheapest fix is, answered by explanation, MWP, MQP, the safe
//! region and MWQ. A [`Question`] names the answer wanted;
//! [`Question::check`] tests the premises every engine shares;
//! [`crate::WhyNotEngine::answer`] and [`crate::PagedEngine::answer`]
//! are the only tables mapping a question to a technique.

use crate::explain::Explanation;
use crate::mqp::MqpAnswer;
use crate::mwp::MwpAnswer;
use crate::mwq::MwqAnswer;
use std::fmt;
use wnrs_geometry::{Point, Region};
use wnrs_rtree::persist::PersistError;
use wnrs_rtree::ItemId;

/// How a question names the why-not customer.
#[derive(Debug, Clone, PartialEq)]
pub enum Customer {
    /// A dataset tuple by id (in-memory engines resolve the point and
    /// apply the own-tuple exclusion automatically).
    Id(ItemId),
    /// An external (hypothetical) customer location; no exclusion.
    External(Point),
    /// Explicit coordinates plus an own-tuple exclusion id — the paged
    /// engine's convention, where no in-memory arena exists to index.
    PointExcluding(Point, ItemId),
}

impl Customer {
    /// The own tuple left out of the customer's dynamic skyline: the
    /// named id, or none for an external customer.
    #[must_use]
    pub fn exclusion(&self) -> Option<ItemId> {
        match self {
            Customer::Id(id) | Customer::PointExcluding(_, id) => Some(*id),
            Customer::External(_) => None,
        }
    }
}

/// A why-not question about the reverse skyline of a query product.
#[derive(Debug, Clone, PartialEq)]
pub enum Question {
    /// `RSL(q)`.
    Rsl {
        /// The query product.
        q: Point,
    },
    /// Aspect 1: the culprit products keeping `customer` out of `RSL(q)`.
    Explain {
        /// The why-not customer.
        customer: Customer,
        /// The query product.
        q: Point,
    },
    /// Algorithm 1: the cheapest moves of the customer.
    Mwp {
        /// The why-not customer.
        customer: Customer,
        /// The query product.
        q: Point,
    },
    /// Algorithm 2: the cheapest moves of the query product.
    Mqp {
        /// The why-not customer.
        customer: Customer,
        /// The query product.
        q: Point,
    },
    /// Algorithm 3: the safe region of `q`.
    SafeRegion {
        /// The query product.
        q: Point,
        /// `Some(k)`: the region approximated from `k`-sampled dynamic
        /// skylines; `None`: the exact region.
        approx_k: Option<usize>,
    },
    /// Algorithm 4: move `q` inside its safe region and, when that is
    /// not enough, the customer too.
    Mwq {
        /// The why-not customer.
        customer: Customer,
        /// The query product.
        q: Point,
        /// The safe region used, as in [`Question::SafeRegion`].
        approx_k: Option<usize>,
    },
}

impl Question {
    /// The query product `q`.
    #[must_use]
    pub fn query(&self) -> &Point {
        match self {
            Question::Rsl { q }
            | Question::Explain { q, .. }
            | Question::Mwp { q, .. }
            | Question::Mqp { q, .. }
            | Question::SafeRegion { q, .. }
            | Question::Mwq { q, .. } => q,
        }
    }

    /// The why-not customer, for the questions that have one.
    #[must_use]
    pub fn customer(&self) -> Option<&Customer> {
        match self {
            Question::Explain { customer, .. }
            | Question::Mwp { customer, .. }
            | Question::Mqp { customer, .. }
            | Question::Mwq { customer, .. } => Some(customer),
            Question::Rsl { .. } | Question::SafeRegion { .. } => None,
        }
    }

    /// The approximate safe region's sample size, when one is asked for.
    #[must_use]
    pub fn approx_k(&self) -> Option<usize> {
        match self {
            Question::SafeRegion { approx_k, .. } | Question::Mwq { approx_k, .. } => *approx_k,
            _ => None,
        }
    }

    /// Tests the premises every engine shares, before any index work:
    /// the query product and a customer named by point have `dim`
    /// coordinates, and an approximate region samples at least one
    /// point. (Coordinates are finite by construction: [`Point::new`]
    /// rejects NaN and infinities.)
    ///
    /// # Errors
    ///
    /// The first false premise, as a [`QuestionError`].
    pub fn check(&self, dim: usize) -> Result<(), QuestionError> {
        let customer = match self.customer() {
            Some(Customer::External(c) | Customer::PointExcluding(c, _)) => Some(("customer", c)),
            _ => None,
        };
        for (role, p) in std::iter::once(("query", self.query())).chain(customer) {
            if p.dim() != dim {
                let got = p.dim();
                return Err(QuestionError::DimMismatch { role, got, dim });
            }
        }
        if self.approx_k() == Some(0) {
            return Err(QuestionError::ZeroSampleSize);
        }
        Ok(())
    }
}

/// An engine's answer, one variant per [`Question`] variant.
#[derive(Debug, Clone)]
pub enum Reply {
    /// `RSL(q)`, sorted by item id.
    Rsl(Vec<(ItemId, Point)>),
    /// The culprit products; none when the customer is already a member.
    Explain(Explanation),
    /// Algorithm 1's candidates, cheapest first.
    Mwp(MwpAnswer),
    /// Algorithm 2's candidates, cheapest first.
    Mqp(MqpAnswer),
    /// The safe region.
    SafeRegion {
        /// How many reverse-skyline members the region keeps.
        members: usize,
        /// The region.
        region: Region,
    },
    /// Algorithm 4's verdict.
    Mwq {
        /// How many reverse-skyline members the move keeps.
        members: usize,
        /// The verdict.
        answer: MwqAnswer,
    },
}

/// A question whose premise is false, or that the engine asked cannot
/// answer.
#[derive(Debug)]
pub enum QuestionError {
    /// A point's dimensionality differs from the dataset's.
    DimMismatch {
        /// Which point: `"query"` or `"customer"`.
        role: &'static str,
        /// The point's dimensionality.
        got: usize,
        /// The dataset's.
        dim: usize,
    },
    /// The customer id names no tuple of the dataset.
    UnknownCustomer {
        /// The id asked for.
        id: ItemId,
        /// The number of tuples the dataset has ever held.
        len: usize,
    },
    /// An approximate safe region was asked with sample size `k = 0`.
    ZeroSampleSize,
    /// The engine cannot serve this customer form or this approximate
    /// region.
    Unsupported(&'static str),
    /// A page read failed while answering.
    PageRead(PersistError),
}

impl fmt::Display for QuestionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuestionError::DimMismatch { role, got, dim } => {
                write!(
                    f,
                    "{role} point has {got} dimension(s), the dataset has {dim}"
                )
            }
            QuestionError::UnknownCustomer { id, len } => write!(
                f,
                "customer id {} out of range (dataset has {len} tuples)",
                id.0
            ),
            QuestionError::ZeroSampleSize => {
                write!(f, "the approximate safe region needs a sample size k >= 1")
            }
            QuestionError::Unsupported(what) => write!(f, "{what}"),
            QuestionError::PageRead(e) => write!(f, "page read failed: {e}"),
        }
    }
}

impl std::error::Error for QuestionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            QuestionError::PageRead(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PersistError> for QuestionError {
    fn from(e: PersistError) -> Self {
        QuestionError::PageRead(e)
    }
}
