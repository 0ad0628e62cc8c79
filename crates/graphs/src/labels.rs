//! Node labellings — the "α/β/γ" axis of the paper's model taxonomy.
//!
//! * **α** — nodes keep their given labels `{0..n-1}` ([`Labeling::identity`]).
//! * **β** — the scheme may permute labels within `{0..n-1}` before
//!   encoding ([`Labeling::permutation`]); label storage is still free
//!   because the labels are minimal.
//! * **γ** — labels are arbitrary bit strings chosen by the scheme
//!   ([`Labeling::arbitrary`]); every node's label length is **charged** to
//!   the space bound, because otherwise routing information could be
//!   smuggled into uncharged identity (Section 1 of the paper).

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use ort_bitio::{BitReader, BitVec};

use crate::NodeId;

/// Error produced by labelling construction.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LabelingError {
    /// The permutation supplied for a β-labelling was not a permutation of
    /// `0..n`.
    NotAPermutation,
    /// Two nodes were given the same arbitrary label.
    DuplicateLabel {
        /// First node with the label.
        first: NodeId,
        /// Second node with the label.
        second: NodeId,
    },
    /// Wrong number of labels for the graph order.
    WrongLength {
        /// Expected number of labels.
        expected: usize,
        /// Supplied number of labels.
        actual: usize,
    },
}

impl fmt::Display for LabelingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LabelingError::NotAPermutation => write!(f, "labels are not a permutation of 0..n"),
            LabelingError::DuplicateLabel { first, second } => {
                write!(f, "nodes {first} and {second} share a label")
            }
            LabelingError::WrongLength { expected, actual } => {
                write!(f, "expected {expected} labels, got {actual}")
            }
        }
    }
}

impl Error for LabelingError {}

/// A node label as seen by routing functions: either a minimal integer in
/// `0..n` (models α/β) or an arbitrary bit string (model γ).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Label {
    /// Minimal label (α/β models), not charged to the space bound.
    Minimal(NodeId),
    /// Arbitrary label (γ model), charged at its bit length.
    Bits(BitVec),
}

/// A node label read in place: what [`Labeling::label_ref`] returns, so a
/// router can compare or decode a label without copying its bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LabelRef<'a> {
    /// Minimal label (α/β models).
    Minimal(NodeId),
    /// Arbitrary label (γ model), borrowed from its labelling.
    Bits(&'a BitVec),
}

impl LabelRef<'_> {
    /// The owned [`Label`] this view reads.
    #[must_use]
    pub fn to_owned(self) -> Label {
        match self {
            LabelRef::Minimal(v) => Label::Minimal(v),
            LabelRef::Bits(b) => Label::Bits(b.clone()),
        }
    }

    /// The number of bits charged for storing this label at its node:
    /// 0 for minimal labels, the bit length for arbitrary ones.
    #[must_use]
    pub fn charged_bits(self) -> usize {
        match self {
            LabelRef::Minimal(_) => 0,
            LabelRef::Bits(b) => b.len(),
        }
    }
}

impl PartialEq<Label> for LabelRef<'_> {
    fn eq(&self, other: &Label) -> bool {
        match (*self, other) {
            (LabelRef::Minimal(a), Label::Minimal(b)) => a == *b,
            (LabelRef::Bits(a), Label::Bits(b)) => a == b,
            _ => false,
        }
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Label::Minimal(v) => write!(f, "{v}"),
            Label::Bits(b) => write!(f, "⟨{b}⟩"),
        }
    }
}

/// A labelling of the `n` nodes of a graph.
///
/// # Example
///
/// ```
/// use ort_graphs::labels::Labeling;
///
/// let lab = Labeling::permutation(vec![2, 0, 1])?;
/// assert_eq!(lab.node_of_minimal(2), Some(0));
/// assert_eq!(lab.total_charged_bits(), 0); // β labels are free
/// # Ok::<(), ort_graphs::labels::LabelingError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Labeling {
    kind: LabelingKind,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum LabelingKind {
    Identity(usize),
    /// `label[u]` is the β label of node `u`.
    Permutation { label: Vec<NodeId>, node_of: Vec<NodeId> },
    /// `label[u]` is the γ label of node `u`.
    Arbitrary { label: Vec<BitVec>, node_of: HashMap<BitVec, NodeId> },
}

impl Labeling {
    /// The α labelling: node `u` is labelled `u`.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        Labeling { kind: LabelingKind::Identity(n) }
    }

    /// A β labelling: node `u` is labelled `label[u]`, where `label` is a
    /// permutation of `0..n`.
    ///
    /// # Errors
    ///
    /// Returns [`LabelingError::NotAPermutation`] otherwise.
    pub fn permutation(label: Vec<NodeId>) -> Result<Self, LabelingError> {
        if ort_bitio::lehmer::validate_permutation(&label).is_err() {
            return Err(LabelingError::NotAPermutation);
        }
        let mut node_of = vec![0; label.len()];
        for (u, &l) in label.iter().enumerate() {
            node_of[l] = u;
        }
        Ok(Labeling { kind: LabelingKind::Permutation { label, node_of } })
    }

    /// A γ labelling: node `u` carries the arbitrary bit string `label[u]`.
    /// Labels must be distinct (a routing function is assumed to receive
    /// valid destination labels, but identical labels would make routing
    /// ill-defined).
    ///
    /// # Errors
    ///
    /// Returns [`LabelingError::DuplicateLabel`] on a collision.
    pub fn arbitrary(label: Vec<BitVec>) -> Result<Self, LabelingError> {
        let mut node_of = HashMap::with_capacity(label.len());
        for (u, l) in label.iter().enumerate() {
            if let Some(prev) = node_of.insert(l.clone(), u) {
                return Err(LabelingError::DuplicateLabel { first: prev, second: u });
            }
        }
        Ok(Labeling { kind: LabelingKind::Arbitrary { label, node_of } })
    }

    /// Number of labelled nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        match &self.kind {
            LabelingKind::Identity(n) => *n,
            LabelingKind::Permutation { label, .. } => label.len(),
            LabelingKind::Arbitrary { label, .. } => label.len(),
        }
    }

    /// The label of node `u`, read in place.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[must_use]
    pub fn label_ref(&self, u: NodeId) -> LabelRef<'_> {
        match &self.kind {
            LabelingKind::Identity(n) => {
                assert!(u < *n, "node {u} out of range");
                LabelRef::Minimal(u)
            }
            LabelingKind::Permutation { label, .. } => LabelRef::Minimal(label[u]),
            LabelingKind::Arbitrary { label, .. } => LabelRef::Bits(&label[u]),
        }
    }

    /// The label of node `u`, copied out.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[must_use]
    pub fn label_of(&self, u: NodeId) -> Label {
        self.label_ref(u).to_owned()
    }

    /// The node carrying minimal label `l`, if this is an α/β labelling.
    #[must_use]
    pub fn node_of_minimal(&self, l: NodeId) -> Option<NodeId> {
        match &self.kind {
            LabelingKind::Identity(n) => (l < *n).then_some(l),
            LabelingKind::Permutation { node_of, .. } => node_of.get(l).copied(),
            LabelingKind::Arbitrary { .. } => None,
        }
    }

    /// The node carrying an arbitrary label, if this is a γ labelling.
    ///
    /// A label that begins with its node's id in `⌈log₂ n⌉` bits, as
    /// Theorem 2's and the landmark scheme's labels do, names its node
    /// without hashing: when the node that id names carries `l`, it is the
    /// answer. Any other label, a malformed one included, goes through the
    /// reverse index. Labels are distinct, so both give the same node.
    #[must_use]
    pub fn node_of_bits(&self, l: &BitVec) -> Option<NodeId> {
        let LabelingKind::Arbitrary { label, node_of } = &self.kind else {
            return None;
        };
        let width = ort_bitio::bits_to_index(label.len() as u64);
        match BitReader::new(l).read_bits(width) {
            Ok(lead) if label.get(lead as usize) == Some(l) => Some(lead as usize),
            _ => node_of.get(l).copied(),
        }
    }

    /// The node carrying `label`, for any labelling kind.
    #[must_use]
    pub fn node_of(&self, label: &Label) -> Option<NodeId> {
        match label {
            Label::Minimal(l) => self.node_of_minimal(*l),
            Label::Bits(b) => self.node_of_bits(b),
        }
    }

    /// Whether this labelling charges label bits (γ) or not (α/β).
    #[must_use]
    pub fn is_charged(&self) -> bool {
        matches!(self.kind, LabelingKind::Arbitrary { .. })
    }

    /// Bits charged at node `u` for storing its own label.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[must_use]
    pub fn charged_bits(&self, u: NodeId) -> usize {
        self.label_ref(u).charged_bits()
    }

    /// Total label bits charged across all nodes (the paper adds this to
    /// the space requirement in model γ).
    #[must_use]
    pub fn total_charged_bits(&self) -> usize {
        (0..self.node_count()).map(|u| self.charged_bits(u)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_labels() {
        let lab = Labeling::identity(5);
        assert_eq!(lab.label_of(3), Label::Minimal(3));
        assert_eq!(lab.node_of_minimal(3), Some(3));
        assert_eq!(lab.node_of_minimal(5), None);
        assert!(!lab.is_charged());
        assert_eq!(lab.total_charged_bits(), 0);
    }

    #[test]
    fn permutation_labels_invert() {
        let lab = Labeling::permutation(vec![2, 0, 3, 1]).unwrap();
        assert_eq!(lab.label_of(0), Label::Minimal(2));
        assert_eq!(lab.node_of_minimal(2), Some(0));
        for u in 0..4 {
            let Label::Minimal(l) = lab.label_of(u) else { panic!() };
            assert_eq!(lab.node_of_minimal(l), Some(u));
        }
        assert_eq!(lab.total_charged_bits(), 0);
    }

    #[test]
    fn permutation_rejects_invalid() {
        assert_eq!(
            Labeling::permutation(vec![0, 0, 1]),
            Err(LabelingError::NotAPermutation)
        );
    }

    #[test]
    fn arbitrary_labels_charged_and_looked_up() {
        let labels = vec![
            BitVec::from_bit_str("0"),
            BitVec::from_bit_str("10"),
            BitVec::from_bit_str("110"),
        ];
        let lab = Labeling::arbitrary(labels.clone()).unwrap();
        assert!(lab.is_charged());
        assert_eq!(lab.charged_bits(2), 3);
        assert_eq!(lab.total_charged_bits(), 6);
        for (u, l) in labels.iter().enumerate() {
            assert_eq!(lab.node_of_bits(l), Some(u));
            assert_eq!(lab.node_of(&Label::Bits(l.clone())), Some(u));
        }
        assert_eq!(lab.node_of_bits(&BitVec::from_bit_str("111")), None);
    }

    #[test]
    fn arbitrary_rejects_duplicates() {
        let labels = vec![BitVec::from_bit_str("01"), BitVec::from_bit_str("01")];
        assert_eq!(
            Labeling::arbitrary(labels),
            Err(LabelingError::DuplicateLabel { first: 0, second: 1 })
        );
    }

    #[test]
    fn empty_bitvec_is_a_valid_distinct_label() {
        let labels = vec![BitVec::new(), BitVec::from_bit_str("0")];
        let lab = Labeling::arbitrary(labels).unwrap();
        assert_eq!(lab.node_of_bits(&BitVec::new()), Some(0));
        assert_eq!(lab.charged_bits(0), 0);
    }

    #[test]
    fn label_ref_views_the_owned_label() {
        let gamma =
            Labeling::arbitrary(vec![BitVec::from_bit_str("0"), BitVec::from_bit_str("10")])
                .unwrap();
        let kinds = [Labeling::identity(2), Labeling::permutation(vec![1, 0]).unwrap(), gamma];
        for lab in &kinds {
            for u in 0..2 {
                let view = lab.label_ref(u);
                assert_eq!(view, lab.label_of(u));
                assert_eq!(view.to_owned(), lab.label_of(u));
                assert_eq!(view.charged_bits(), lab.charged_bits(u));
                assert_ne!(view, lab.label_of(1 - u), "another node's label");
            }
        }
        assert_ne!(LabelRef::Minimal(0), Label::Bits(BitVec::new()), "kinds never match");
    }

    #[test]
    fn label_display() {
        assert_eq!(Label::Minimal(7).to_string(), "7");
        assert_eq!(Label::Bits(BitVec::from_bit_str("101")).to_string(), "⟨101⟩");
    }
}
